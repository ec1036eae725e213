// Quickstart: deploy the SocialNetwork benchmark in the simulator, drive it
// with legitimate closed-loop users, then launch a full Grunt attack
// campaign (profiling -> calibration -> alternating bursts) and compare the
// response time legitimate users see before and during the attack.
//
// This is the smallest end-to-end use of the public API:
//   scenario::SocialNetworkScenario -> the target and its users
//   scenario::ScenarioRig -> the deployment: cluster, workload, and the
//     operator's 1 s CloudWatch-style ResourceMonitor / ResponseTimeMonitor
//   attack::GruntAttack on the rig's SimTargetClient -> the attacker

#include <cstdio>
#include <exception>

#include "scenario/builtin_apps.h"
#include "scenario/deployment.h"

int main() try {
  using namespace grunt;

  // --- target system under 7000 closed-loop users, 7 s think time ---
  scenario::ScenarioSpec spec = scenario::SocialNetworkScenario();
  spec.operators.autoscaler_enabled = false;  // monitoring only
  spec.operators.ids_enabled = false;
  scenario::ScenarioRig rig(spec, /*seed=*/42);
  const auto& app = rig.app();

  // --- warm up, then measure the baseline ---
  const SimTime kBaselineFrom = Sec(20), kBaselineTo = Sec(50);
  rig.RunUntil(kBaselineTo);
  const Samples baseline =
      rig.rt_monitor().LegitWindow(kBaselineFrom, kBaselineTo);
  std::printf("baseline: %zu legit requests, mean RT %.1f ms, p95 %.1f ms\n",
              baseline.count(), baseline.mean(), baseline.Percentile(95));
  for (std::size_t i = 0; i < app.service_count(); ++i) {
    const auto sid = static_cast<microsvc::ServiceId>(i);
    const double util = rig.cloudwatch().cpu_util(sid).WindowMean(
        kBaselineFrom, kBaselineTo);
    if (util > 0.25) {
      std::printf("  busy service %-16s util %.0f%%\n",
                  app.service(sid).name.c_str(), util * 100);
    }
  }

  // --- the attacker: blackbox client + full Grunt campaign ---
  attack::GruntAttack grunt(rig.client(), {});
  const SimTime attack_began = scenario::RunGrunt(
      rig.sim(), grunt, /*attack_duration=*/Sec(60), nullptr, "campaign");
  std::printf("\nattack phase begins at t=%.0fs (profiling+calibration "
              "took %.0fs)\n",
              ToSeconds(attack_began), ToSeconds(attack_began - kBaselineTo));
  const auto& report = grunt.report();
  std::printf("\ncampaign done: %zu groups attacked, %zu bots, "
              "%llu attack requests\n",
              report.groups.size(), report.bots_used,
              static_cast<unsigned long long>(report.attack_requests));
  std::printf("profiler found %zu dependency groups:\n",
              report.profile.groups.size());
  for (const auto& g : report.profile.groups) {
    std::printf("  {");
    for (std::size_t i = 0; i < g.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", app.request_type(g[i]).name.c_str());
    }
    std::printf("}\n");
  }
  for (const auto& g : report.groups) {
    std::printf("  group: m=%d bursts=%zu avg P_MB=%.0f ms "
                "avg t_min=%.0f ms\n",
                g.paths_used, g.bursts.size(), g.MeanPmbMs(), g.MeanTminMs());
  }

  // --- attack-window damage as legitimate users saw it ---
  const Samples attacked = rig.rt_monitor().LegitWindow(
      attack_began + Sec(5), attack_began + Sec(60));
  std::printf("\nunder attack: %zu legit requests, mean RT %.1f ms, "
              "p95 %.1f ms (%.1fx baseline mean)\n",
              attacked.count(), attacked.mean(), attacked.Percentile(95),
              baseline.mean() > 0 ? attacked.mean() / baseline.mean() : 0.0);
  return 0;
} catch (const std::exception& e) {  // e.g. a campaign that hit the cap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
