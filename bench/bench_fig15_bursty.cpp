// Reproduces Fig 15: Grunt attack under a real-world-style "Large
// Variation" workload trace with auto-scaling enabled.
//
// Expected shape: (a) the legit workload swings widely; (b) the autoscaler
// takes scale-up/down actions in response to the BASELINE swings (not the
// attack); (c) the Commander continuously re-tunes the attack volume; (d)
// legit latency is pinned near the damage goal throughout.

#include <cstdio>
#include <exception>

#include "rig.h"
#include "scenario/builtin_apps.h"

int main() try {
  using namespace grunt;
  using namespace grunt::bench;

  Banner("Fig 15: attack under the Large-Variation trace with autoscaling",
         "volume adapts to workload and scaling; damage goal maintained");

  // Open-loop trace-driven workload instead of the closed-loop population,
  // and a slow-provisioning autoscaler with no IDS.
  auto spec = scenario::SocialNetworkScenario();
  spec.workload.kind = scenario::WorkloadSpec::Kind::kOpenLoop;
  spec.workload.rate = 700;
  spec.operators.autoscaler.provision_delay = Sec(15);
  spec.operators.ids_enabled = false;
  scenario::ScenarioRig rig(spec, 15);
  const auto& app = rig.app();
  const auto& scaler = *rig.autoscaler();

  // Large-Variation trace over [40s, 340s): 300..1500 req/s.
  const auto trace =
      workload::MakeLargeVariationTrace(Sec(40), Sec(300), Sec(10), 300.0,
                                        1500.0, 15);
  trace.Apply(rig.sim(), *rig.open_source());

  rig.RunUntil(Sec(40));

  const auto profile =
      scenario::TruthProfile(app, scenario::ScenarioRates(app, spec.workload));
  attack::GruntAttack grunt(rig.client(), {});
  const SimTime attack_start = scenario::RunGrunt(
      rig.sim(), grunt, Sec(200), &profile, "the Fig 15 campaign");
  const auto& report = grunt.report();

  const auto cp = *app.FindService("compose-post");
  std::printf("\nattack phase: t=%.0fs .. %.0fs\n", ToSeconds(attack_start),
              ToSeconds(attack_start) + 200);
  std::printf("\n%7s %12s %10s %14s %12s\n", "t (s)", "load (r/s)",
              "replicas", "burst vol (req)", "RT (ms)");
  for (SimTime t = Sec(40); t < Sec(340); t += Sec(10)) {
    // Mean attack burst volume in this window across all groups.
    RunningStats vol;
    for (const auto& g : report.groups) {
      for (const auto& p : g.burst_volume.points()) {
        if (p.time >= t && p.time < t + Sec(10)) vol.Add(p.value);
      }
    }
    std::printf("%7.0f %12.0f %10.0f %14.1f %12.0f\n", ToSeconds(t),
                trace.RateAt(t),
                rig.cloudwatch().replicas(cp).WindowMean(t, t + Sec(10)),
                vol.count() ? vol.mean() : 0.0,
                rig.rt_monitor().LegitWindow(t, t + Sec(10)).mean());
  }

  std::printf("\nautoscaling actions (Fig 15b):\n");
  for (const auto& a : scaler.actions()) {
    std::printf("  t=%6.0fs %-14s %s -> %d replicas\n", ToSeconds(a.at),
                app.service(a.service).name.c_str(),
                a.delta > 0 ? "scale-UP " : "scale-DOWN",
                a.replicas_after);
  }
  std::printf("(total: %zu up, %zu down)\n", scaler.scale_up_count(),
              scaler.scale_down_count());

  const Samples att = rig.rt_monitor().LegitWindow(attack_start + Sec(10),
                                                   attack_start + Sec(200));
  std::printf("\nattack-window legit RT: mean %.0f ms, p95 %.0f ms "
              "(goal >= 1000 ms mean)\n",
              att.mean(), att.Percentile(95));
  std::printf("paper (Fig 15): commander re-tunes volume through scale-ups "
              "and workload swings, keeping RT at the damage goal\n");
  return 0;
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
