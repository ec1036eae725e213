// Reproduces Table IV: live attack experiments against three unknown
// µBench-style applications (62/118/196 unique microservices), each under a
// low and a medium baseline workload. Full blackbox campaign: profile ->
// calibrate -> attack.
//
// Expected shape: RT degrades to >1s from a <100ms baseline at every scale;
// normalized gateway traffic grows only ~1.2-1.4x; bottleneck CPU grows by
// tens of points at most; P_MB stays under 500ms. Higher baseline workloads
// need less attack effort.
//
// Exits 1, naming each app that misses on stderr, unless for every app the
// med-workload RT factor (attack over baseline mean RT) exceeds the
// low-workload one and the med cell uses no more bots.
//
// The six (app, workload) cells are independent simulations with their own
// seeds; they fan out on util::ParallelRunner and print in table order, so
// stdout is the same at any GRUNT_BENCH_THREADS. `--smoke` (the
// bench_table4_live ctest) runs and checks App.1's two cells only, on the
// full table's seeds, and prints their rows as the full table does.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "rig.h"
#include "scenario/generate.h"
#include "scenario/registry.h"
#include "util/parallel_runner.h"

using namespace grunt;
using namespace grunt::bench;

namespace {

struct LiveResult {
  Samples base_rt, att_rt;
  double base_mbps = 0, att_mbps = 0;
  double base_cpu = 0, att_cpu = 0;
  double pmb_ms = 0;
  std::size_t bots = 0;

  double rt_factor() const {
    return base_rt.mean() > 0 ? att_rt.mean() / base_rt.mean() : 0;
  }
};

/// Deploys `spec` under an open loop of `total_rate` req/s spread evenly
/// over its public dynamic paths, watched by the 1 s monitors only, and runs
/// the full campaign. Throws std::runtime_error naming `name` and the rate
/// when the campaign has not finished by scenario::kRunCap.
LiveResult RunLive(const std::string& name, scenario::ScenarioSpec spec,
                   double total_rate, std::uint64_t seed) {
  spec.workload.kind = scenario::WorkloadSpec::Kind::kOpenLoop;
  spec.workload.rate = total_rate;
  spec.workload.mix.clear();  // uniform over the public dynamic paths
  spec.operators.autoscaler_enabled = false;
  spec.operators.ids_enabled = false;
  scenario::ScenarioRig rig(spec, seed);
  rig.RunUntil(Sec(40));
  const cloud::ResourceMonitor& monitor = rig.cloudwatch();
  const cloud::ResponseTimeMonitor& rt = rig.rt_monitor();

  LiveResult out;
  out.base_rt = rt.LegitWindow(Sec(15), Sec(40));
  out.base_mbps = monitor.gateway_mbps().WindowMean(Sec(15), Sec(40));
  const auto hottest = rig.HottestBackend(Sec(15), Sec(40));
  out.base_cpu =
      100.0 * monitor.cpu_util(hottest).WindowMean(Sec(15), Sec(40));

  attack::GruntAttack grunt(rig.client(), {});
  const SimTime attack_start =
      scenario::RunGrunt(rig.sim(), grunt, Sec(60), nullptr,
                         "live campaign on " + name + " at " +
                             std::to_string(static_cast<int>(total_rate)) +
                             " req/s");

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

int main(int argc, char** argv) try {
  // --scenario runs the same live pipeline against one chosen scenario
  // (open-loop at its spec rate) instead of the three paper-scale apps.
  auto sargs = scenario::ParseScenarioArgs(argc, argv);
  if (sargs.should_exit) return sargs.exit_code;
  if (sargs.scenario) {
    const auto& spec = *sargs.scenario;
    Banner("Live attack vs scenario \"" + spec.name + "\"",
           spec.description.empty() ? "user-selected scenario"
                                    : spec.description);
    const double rate =
        spec.workload.kind == scenario::WorkloadSpec::Kind::kOpenLoop
            ? spec.workload.rate
            : static_cast<double>(spec.workload.users) /
                  ToSeconds(spec.workload.think_mean);
    std::printf("running %s @ %.0f req/s...\n", spec.name.c_str(), rate);
    const LiveResult r = RunLive(spec.name, spec, rate, 1);
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

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
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
  const std::size_t app_count = smoke ? 1 : std::size(cases);

  struct Cell {
    std::string label;
    std::size_t spec;  ///< index into specs
    double rate;
  };
  std::vector<scenario::ScenarioSpec> specs;
  std::vector<Cell> cells;
  for (std::size_t a = 0; a < app_count; ++a) {
    const AppCase& c = cases[a];
    scenario::MubenchParams shape;
    shape.services = c.services;
    const auto seed = static_cast<std::uint64_t>(c.services);
    specs.push_back(scenario::GenerateMubench(seed, shape));
    for (auto [label, rate] : {std::pair{"low", c.low_rate},
                               std::pair{"med", c.med_rate}}) {
      std::printf("running %s @ %s workload (%.0f req/s)...\n", c.name, label,
                  rate);
      cells.push_back({std::string(c.name) + "-" + label, specs.size() - 1,
                       rate});
    }
  }
  util::ParallelRunner pool;  // GRUNT_BENCH_THREADS threads
  const auto results = pool.Map<LiveResult>(cells.size(), [&](std::size_t i) {
    const Cell& cell = cells[i];
    return RunLive(cell.label, specs[cell.spec], cell.rate,
                   static_cast<std::uint64_t>(cell.rate));
  });

  // Settings pad to the full table's widest label ("-low" and "-med" are
  // the same length), so --smoke prints App.1's rows byte for byte as the
  // full table does.
  std::size_t setting_width = 0;
  for (const auto& c : cases) {
    setting_width = std::max(setting_width, std::strlen(c.name) + 4);
  }
  Table table({"Setting", "P_MB (ms)", "AvgRT base", "AvgRT att",
               "Norm. traffic", "CPU base (%)", "CPU att (%)", "Bots"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const LiveResult& r = results[i];
    std::string setting = cells[i].label;
    setting.resize(setting_width, ' ');
    table.AddRow({setting, Table::Num(r.pmb_ms, 0),
                  Table::Num(r.base_rt.mean()), Table::Num(r.att_rt.mean()),
                  Table::Num(r.base_mbps > 0 ? r.att_mbps / r.base_mbps : 0,
                             2),
                  Table::Num(r.base_cpu, 0), Table::Num(r.att_cpu, 0),
                  Table::Int(static_cast<std::int64_t>(r.bots))});
  }
  std::printf("\n");
  table.Print(std::cout);
  std::printf("\npaper reference (App.1-1K): P_MB 478ms, RT 69 -> 1441ms, "
              "normalized traffic 1.23x, CPU 22 -> 38%%\n");

  // The claim above is the bench's verdict, not just a caption: cells run
  // low then med per app.
  bool ok = true;
  for (std::size_t a = 0; a < app_count; ++a) {
    const LiveResult& low = results[2 * a];
    const LiveResult& med = results[2 * a + 1];
    if (!(med.rt_factor() > low.rt_factor())) {
      std::fprintf(stderr,
                   "missed target: %s: med RT factor %.1fx is not above "
                   "low's %.1fx\n",
                   cases[a].name, med.rt_factor(), low.rt_factor());
      ok = false;
    }
    if (med.bots > low.bots) {
      std::fprintf(stderr,
                   "missed target: %s: med used %zu bots, more than low's "
                   "%zu\n",
                   cases[a].name, med.bots, low.bots);
      ok = false;
    }
  }
  return ok ? 0 : 1;
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
