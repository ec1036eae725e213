// Reproduces Fig 14: the SAME attack as Fig 13, but seen through the cloud
// provider's 1 s-granularity monitor (CloudWatch role).
//
// Expected shape: per-service CPU never exceeds ~60% at 1 s granularity and
// no autoscaling action triggers — the millibottlenecks are invisible.

#include <cstdio>

#include "rig.h"

int main() {
  using namespace grunt;
  using namespace grunt::bench;

  Banner("Fig 14: the 1s CloudWatch view of the Fig 13 attack",
         "CPU <60% at 1s granularity; zero scaling actions");

  const CloudSetting setting{"EC2-12K", 12000, 1.0, 2};
  const auto spec = SocialNetworkSpec(setting);
  ScenarioRig rig(spec, 12);
  rig.RunUntil(Sec(40));
  const auto profile =
      TruthProfile(rig.app(), ScenarioRates(rig.app(), spec.workload));
  attack::GruntConfig cfg;
  cfg.max_groups = 1;
  attack::GruntAttack grunt(rig.client(), cfg);
  bool done = false;
  SimTime attack_start = 0;
  grunt.OnAttackPhaseStart([&](SimTime at) { attack_start = at; });
  grunt.RunWithProfile(profile, Sec(40),
                       [&](const attack::GruntReport&) { done = true; });
  rig.RunUntilFlag(done, Sec(1200));

  const auto& app = rig.app();
  const char* services[] = {"compose-post", "text-service", "media-service",
                            "url-shorten", "user-mention"};
  const SimTime att_to = attack_start + Sec(40);

  std::printf("\n%7s |", "t(s)");
  for (const char* s : services) std::printf(" %-13.13s", s);
  std::printf("\n");
  for (SimTime t = attack_start; t < att_to; t += Sec(2)) {
    std::printf("%7.0f |", ToSeconds(t));
    for (const char* name : services) {
      const auto sid = *app.FindService(name);
      std::printf(" %12.0f%%",
                  rig.cloudwatch().cpu_util(sid).WindowMean(t, t + Sec(2)) *
                      100);
    }
    std::printf("\n");
  }

  std::printf("\n1s-granularity view during the attack:\n");
  bool mean_ok = true;
  for (const char* name : services) {
    const auto sid = *app.FindService(name);
    const double mean =
        rig.cloudwatch().cpu_util(sid).WindowMean(attack_start, att_to);
    const double mx =
        rig.cloudwatch().cpu_util(sid).WindowMax(attack_start, att_to);
    mean_ok = mean_ok && mean < 0.70;
    std::printf("  %-14s mean %3.0f%%  max %3.0f%%\n", name, mean * 100,
                mx * 100);
  }
  std::size_t actions_during = 0;
  for (const auto& a : rig.autoscaler()->actions()) {
    actions_during += (a.at >= attack_start && a.at < att_to);
  }
  std::printf("\nautoscaling actions during attack: %zu (paper: none)\n",
              actions_during);
  std::printf("resource-saturation IDS alerts: %zu (paper: none)\n",
              rig.ids()->CountAlerts(cloud::AlertRule::kResourceSaturation));
  std::printf("verdict: %s\n",
              (actions_during == 0 && mean_ok)
                  ? "REPRODUCED — attack invisible at 1s granularity"
                  : "shape deviation, inspect above");
  return 0;
}
