// Reproduces Table I ("Measured long response time damage by Grunt") and
// Table III ("Attacking results...") of the paper: the full blackbox Grunt
// campaign — crawl, pairwise profiling, calibration, alternating bursts —
// against the SocialNetwork benchmark across six cloud settings.
//
// Expected shape (paper): avg RT degrades >10x (100ms-class -> >1s), p95
// degrades >20x, while gateway traffic and bottleneck CPU grow only
// modestly; P_MB stays under the 500 ms stealth cap; a few hundred bots.

#include <cstdio>
#include <exception>
#include <iostream>

#include "rig.h"
#include "scenario/registry.h"
#include "util/parallel_runner.h"

int main(int argc, char** argv) try {
  using namespace grunt;
  using namespace grunt::bench;

  // --scenario swaps the whole experiment for a one-scenario campaign; the
  // flag-less run below is byte-stable against the pre-scenario-layer output.
  auto sargs = scenario::ParseScenarioArgs(argc, argv);
  if (sargs.should_exit) return sargs.exit_code;
  if (sargs.scenario) return RunScenarioBench(*sargs.scenario);

  Banner("Table I + Table III: Grunt damage across cloud settings",
         "avg RT >10x, 95ile >20x; extra CPU <20pp, extra traffic small; "
         "P_MB <= 500ms");

  Table table1({"Setting", "AvgRT base (ms)", "AvgRT att (ms)",
                "p95 base (ms)", "p95 att (ms)", "Net base (MB/s)",
                "Net att (MB/s)", "CPU base (%)", "CPU att (%)"});
  Table table3({"Setting", "Bots (#)", "P_MB (ms)", "AvgRT base (ms)",
                "AvgRT att (ms)", "RT factor", "Bottleneck svc",
                "Scale acts", "Attrib. alerts"});

  const auto settings = PaperSettings();
  util::ParallelRunner pool;  // GRUNT_BENCH_THREADS threads
  for (const auto& setting : settings) {
    std::printf("running %s (%d users)...\n", setting.name.c_str(),
                setting.users);
  }
  // stderr: stdout is byte-stable at any thread count.
  std::fprintf(stderr, "dispatching %zu campaigns on %u workers\n",
               settings.size(), pool.threads());
  // Campaigns are independent (each builds its own Simulation) and come
  // back in settings order, so the tables below are identical at any
  // thread count.
  const auto results =
      pool.Map<CampaignResult>(settings.size(), [&](std::size_t i) {
        const auto seed = 1000 + static_cast<std::uint64_t>(settings[i].users);
        return RunScenarioCampaign(SocialNetworkSpec(settings[i]), Sec(60),
                                   seed);
      });

  for (std::size_t i = 0; i < settings.size(); ++i) {
    const auto& setting = settings[i];
    const CampaignResult& r = results[i];
    table1.AddRow({setting.name, Table::Num(r.base_rt_ms.mean()),
                   Table::Num(r.att_rt_ms.mean()),
                   Table::Num(r.base_rt_ms.Percentile(95)),
                   Table::Num(r.att_rt_ms.Percentile(95)),
                   Table::Num(r.base_mbps, 2), Table::Num(r.att_mbps, 2),
                   Table::Num(r.base_cpu_pct, 0),
                   Table::Num(r.att_cpu_pct, 0)});
    const double factor = r.base_rt_ms.mean() > 0
                              ? r.att_rt_ms.mean() / r.base_rt_ms.mean()
                              : 0;
    table3.AddRow({setting.name, Table::Int(static_cast<std::int64_t>(r.bots)),
                   Table::Num(r.mean_pmb_ms, 0),
                   Table::Num(r.base_rt_ms.mean()),
                   Table::Num(r.att_rt_ms.mean()), Table::Num(factor, 1),
                   r.bottleneck_service,
                   Table::Int(static_cast<std::int64_t>(
                       r.scale_actions_during_attack)),
                   Table::Int(static_cast<std::int64_t>(
                       r.attributed_alerts))});
  }

  std::printf("\nTable I — response time / traffic / CPU, baseline vs "
              "attack\n");
  table1.Print(std::cout);
  std::printf("\nTable III — attack parameters and stealth outcome\n");
  table3.Print(std::cout);
  std::printf("\npaper reference rows (EC2-7K): base 106ms -> att 1142ms "
              "(10.8x), p95 120 -> 4231, net 29 -> 41 MB/s, CPU 21 -> 36%%, "
              "269 bots, P_MB 482ms\n");
  return 0;
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
