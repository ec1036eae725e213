// Extension bench: the full blackbox Grunt pipeline against a SECOND
// application family — a HotelReservation-style travel-booking topology
// with a different dependency structure (two fan-ins instead of three).
//
// Expected shape: same story as SocialNetwork — the profiler recovers the
// two groups + singletons, the attack pins legit RT near the 1 s goal with
// sub-500 ms millibottlenecks and no operator-visible signal. Demonstrates
// the attack generalizes across call-graph shapes (the paper argues this
// via µBench; this is a hand-modeled realistic topology).
//
// On the default run the bench exits 1, naming the miss on stderr, unless
// the profiled groups equal the ground truth's, the RT factor is above 10x,
// the mean P_MB is within attack::kPmbLimitMs, and the attack window sees
// no scale action and no attributed IDS alert.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <vector>

#include "rig.h"
#include "scenario/builtin_apps.h"
#include "scenario/registry.h"

using namespace grunt;
using namespace grunt::bench;

int main(int argc, char** argv) try {
  auto sargs = scenario::ParseScenarioArgs(argc, argv);
  if (sargs.should_exit) return sargs.exit_code;
  if (sargs.scenario) return RunScenarioBench(*sargs.scenario, 77);

  Banner("Extension: Grunt vs a HotelReservation-style application",
         "the pipeline generalizes: groups recovered, >10x damage, stealthy");

  const scenario::ScenarioSpec spec = scenario::HotelReservationScenario();
  scenario::ScenarioRig rig(spec, 77);
  rig.RunUntil(Sec(40));
  const auto& app = rig.app();
  attack::GruntAttack grunt(rig.client(), {});
  const SimTime attack_start = scenario::RunGrunt(
      rig.sim(), grunt, Sec(60), nullptr, "the HotelReservation campaign");
  const auto& report = grunt.report();

  std::printf("\nprofiler-recovered dependency groups:\n");
  for (const auto& g : report.profile.groups) {
    std::printf("  {");
    for (std::size_t i = 0; i < g.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", app.request_type(g[i]).name.c_str());
    }
    std::printf("}\n");
  }

  const Samples base = rig.rt_monitor().LegitWindow(Sec(15), Sec(40));
  const Samples att = rig.rt_monitor().LegitWindow(attack_start + Sec(5),
                                                   attack_start + Sec(60));
  std::size_t actions = 0;
  for (const auto& a : rig.autoscaler()->actions()) {
    actions += (a.at >= attack_start);
  }
  const double rt_factor = base.mean() > 0 ? att.mean() / base.mean() : 0;
  const std::size_t alerts = rig.ids()->attributed_attack_alerts();

  Table table({"Metric", "Baseline", "Under attack"});
  table.AddRow({"avg RT (ms)", Table::Num(base.mean()),
                Table::Num(att.mean())});
  table.AddRow({"p95 RT (ms)", Table::Num(base.Percentile(95)),
                Table::Num(att.Percentile(95))});
  table.AddRow({"RT factor", "1.0", Table::Num(rt_factor, 1)});
  table.AddRow({"mean P_MB (ms)", "-", Table::Num(report.MeanPmbMs(), 0)});
  table.AddRow({"bots used", "-",
                Table::Int(static_cast<std::int64_t>(report.bots_used))});
  table.AddRow({"scale actions", "0",
                Table::Int(static_cast<std::int64_t>(actions))});
  table.AddRow({"attributed IDS alerts", "0",
                Table::Int(static_cast<std::int64_t>(alerts))});
  std::printf("\n");
  table.Print(std::cout);

  // The banner's claim is the bench's verdict, not just a caption.
  bool ok = true;
  auto sorted = [](std::vector<std::vector<microsvc::RequestTypeId>> groups) {
    std::sort(groups.begin(), groups.end());
    return groups;
  };
  const auto truth =
      scenario::TruthProfile(app, scenario::ScenarioRates(app, spec.workload));
  if (sorted(report.profile.groups) != sorted(truth.groups)) {
    std::fprintf(stderr, "missed target: the %zu profiled groups differ from "
                 "the truth's %zu\n",
                 report.profile.groups.size(), truth.groups.size());
    ok = false;
  }
  if (!(rt_factor > 10.0)) {
    std::fprintf(stderr, "missed target: RT factor %.1fx is not above 10x\n",
                 rt_factor);
    ok = false;
  }
  if (!(report.MeanPmbMs() <= attack::kPmbLimitMs)) {
    std::fprintf(stderr, "missed target: mean P_MB %.0f ms is above %.0f ms\n",
                 report.MeanPmbMs(), attack::kPmbLimitMs);
    ok = false;
  }
  if (actions != 0 || alerts != 0) {
    std::fprintf(stderr, "missed target: %zu scale actions and %zu "
                 "attributed IDS alerts during the attack, not 0 and 0\n",
                 actions, alerts);
    ok = false;
  }
  return ok ? 0 : 1;
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
