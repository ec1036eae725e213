// Reproduces Table IV: live attack experiments against three unknown
// µBench-style applications (62/118/196 unique microservices), each under a
// low and a medium baseline workload. Full blackbox campaign: profile ->
// calibrate -> attack.
//
// Expected shape: RT degrades to >1s from a <100ms baseline at every scale;
// normalized gateway traffic grows only ~1.2-1.4x; bottleneck CPU grows by
// tens of points at most; P_MB stays under 500ms. Higher baseline workloads
// need less attack effort.

#include <cstdio>
#include <iostream>

#include "rig.h"
#include "scenario/generate.h"
#include "scenario/loader.h"

using namespace grunt;
using namespace grunt::bench;

namespace {

struct LiveResult {
  Samples base_rt, att_rt;
  double base_mbps = 0, att_mbps = 0;
  double base_cpu = 0, att_cpu = 0;
  double pmb_ms = 0;
  std::size_t bots = 0;
};

LiveResult RunLive(const microsvc::Application& app, double total_rate,
                   std::uint64_t seed) {
  sim::Simulation sim;
  microsvc::Cluster cluster(sim, app, seed);
  // Hour-plus of open-loop traffic; the monitors only window recent records,
  // so a bounded completion log keeps memory flat across the run.
  cluster.SetCompletionLogBound(200000);
  workload::OpenLoopSource::Config wl;
  wl.rate = total_rate;
  wl.mix = workload::RequestMix::Uniform(app.PublicDynamicTypes());
  workload::OpenLoopSource source(cluster, wl, seed);
  source.Start();
  cloud::ResourceMonitor monitor(cluster, {Sec(1), "m"});
  cloud::ResponseTimeMonitor rt(cluster, {Sec(1), "rt"});
  monitor.Start();
  rt.Start();
  sim.RunUntil(Sec(40));

  LiveResult out;
  out.base_rt = rt.LegitWindow(Sec(15), Sec(40));
  out.base_mbps = monitor.gateway_mbps().WindowMean(Sec(15), Sec(40));
  const auto hottest = monitor.HottestService(Sec(15), Sec(40));
  out.base_cpu =
      100.0 * monitor.cpu_util(hottest).WindowMean(Sec(15), Sec(40));

  attack::SimTargetClient client(cluster);
  attack::GruntAttack grunt(client, {});
  bool done = false;
  SimTime attack_start = 0;
  grunt.OnAttackPhaseStart([&](SimTime at) { attack_start = at; });
  grunt.Run(Sec(60), [&](const attack::GruntReport&) { done = true; });
  while (!done && sim.Now() < Sec(7200)) sim.RunUntil(sim.Now() + Sec(30));

  const SimTime att_from = attack_start + Sec(5);
  const SimTime att_to = attack_start + Sec(60);
  out.att_rt = rt.LegitWindow(att_from, att_to);
  out.att_mbps = monitor.gateway_mbps().WindowMean(att_from, att_to);
  out.att_cpu = 100.0 * monitor.cpu_util(hottest).WindowMean(att_from, att_to);
  out.pmb_ms = grunt.report().MeanPmbMs();
  out.bots = grunt.report().bots_used;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // --scenario runs the same live pipeline against one chosen scenario
  // (open-loop at its spec rate) instead of the three paper-scale apps.
  auto sargs = ParseScenarioArgs(argc, argv);
  if (sargs.should_exit) return sargs.exit_code;
  if (sargs.scenario) {
    const auto& spec = *sargs.scenario;
    Banner("Live attack vs scenario \"" + spec.name + "\"",
           spec.description.empty() ? "user-selected scenario"
                                    : spec.description);
    const auto app = scenario::BuildApplication(spec.topology);
    const double rate =
        spec.workload.kind == scenario::WorkloadSpec::Kind::kOpenLoop
            ? spec.workload.rate
            : static_cast<double>(spec.workload.users) /
                  ToSeconds(spec.workload.think_mean);
    std::printf("running %s @ %.0f req/s...\n", spec.name.c_str(), rate);
    const LiveResult r = RunLive(app, rate, 1);
    Table table({"Setting", "P_MB (ms)", "AvgRT base", "AvgRT att",
                 "Norm. traffic", "CPU base (%)", "CPU att (%)", "Bots"});
    table.AddRow({spec.name, Table::Num(r.pmb_ms, 0),
                  Table::Num(r.base_rt.mean()), Table::Num(r.att_rt.mean()),
                  Table::Num(r.base_mbps > 0 ? r.att_mbps / r.base_mbps : 0,
                             2),
                  Table::Num(r.base_cpu, 0), Table::Num(r.att_cpu, 0),
                  Table::Int(static_cast<std::int64_t>(r.bots))});
    std::printf("\n");
    table.Print(std::cout);
    return 0;
  }

  Banner("Table IV: live attacks on unknown-architecture apps",
         "avg RT <100ms -> >1s; normalized traffic ~1.2-1.4x; CPU +10-20pp");

  struct AppCase {
    const char* name;
    int services;
    double low_rate;
    double med_rate;
  };
  // Per-app workloads mirroring App.1-1K/3K .. App.3-8K/16K (scaled to this
  // substrate's capacity; labels keep the paper's naming).
  const AppCase cases[] = {
      {"App.1 (62 svc)", 62, 250, 550},
      {"App.2 (118 svc)", 118, 300, 600},
      {"App.3 (196 svc)", 196, 350, 700},
  };

  Table table({"Setting", "P_MB (ms)", "AvgRT base", "AvgRT att",
               "Norm. traffic", "CPU base (%)", "CPU att (%)", "Bots"});
  for (const auto& c : cases) {
    scenario::MubenchParams shape;
    shape.services = c.services;
    const auto seed = static_cast<std::uint64_t>(c.services);
    const auto app = scenario::BuildApplication(
        scenario::GenerateMubench(seed, shape).topology);
    for (auto [label, rate] : {std::pair{"low", c.low_rate},
                               std::pair{"med", c.med_rate}}) {
      std::printf("running %s @ %s workload (%.0f req/s)...\n", c.name, label,
                  rate);
      const LiveResult r =
          RunLive(app, rate, static_cast<std::uint64_t>(rate));
      table.AddRow({std::string(c.name) + "-" + label,
                    Table::Num(r.pmb_ms, 0), Table::Num(r.base_rt.mean()),
                    Table::Num(r.att_rt.mean()),
                    Table::Num(r.base_mbps > 0 ? r.att_mbps / r.base_mbps : 0,
                               2),
                    Table::Num(r.base_cpu, 0), Table::Num(r.att_cpu, 0),
                    Table::Int(static_cast<std::int64_t>(r.bots))});
    }
  }
  std::printf("\n");
  table.Print(std::cout);
  std::printf("\npaper reference (App.1-1K): P_MB 478ms, RT 69 -> 1441ms, "
              "normalized traffic 1.23x, CPU 22 -> 38%%\n");
  return 0;
}
