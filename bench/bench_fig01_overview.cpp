// Reproduces Fig 1: "System bottleneck resource utilization and response
// time under Grunt attack. Metrics are collected every 1 second."
//
// Expected shape: during the attack the legit mean RT jumps to the ~1 s
// damage goal while the 1 s-sampled CPU of the bottleneck service stays
// moderate (no visible saturation) — the visual core of the stealth claim.

#include <cstdio>
#include <exception>

#include "rig.h"

int main() try {
  using namespace grunt;
  using namespace grunt::bench;

  Banner("Fig 1: 1s-granularity bottleneck CPU and legit RT under attack",
         "RT rises >10x while the 1s CPU view stays well below saturation");

  const CloudSetting setting{"EC2-7K", 7000, 1.0, 1};
  const auto spec = SocialNetworkSpec(setting);
  scenario::ScenarioRig rig(spec, 42);
  rig.RunUntil(Sec(40));

  // White-box profile (the profiler is exercised by fig11/fig12/fig16);
  // here we want a clean timeline of the attack phase itself.
  const auto profile = scenario::TruthProfile(
      rig.app(), scenario::ScenarioRates(rig.app(), spec.workload));
  attack::GruntAttack grunt(rig.client(), {});
  const SimTime attack_start = scenario::RunGrunt(
      rig.sim(), grunt, Sec(60), &profile, "the Fig 1 campaign");

  const auto hottest = rig.HottestBackend(Sec(20), Sec(40));
  std::printf("\nbottleneck service: %s; attack phase begins at t=%.0fs\n\n",
              rig.app().service(hottest).name.c_str(),
              ToSeconds(attack_start));
  std::printf("%8s %14s %16s %12s\n", "t (s)", "CPU util (%)",
              "legit RT (ms)", "phase");
  const SimTime plot_from = attack_start - Sec(20);
  const SimTime plot_to = attack_start + Sec(60);
  for (SimTime t = plot_from; t < plot_to; t += Sec(2)) {
    const double cpu =
        rig.cloudwatch().cpu_util(hottest).WindowMean(t, t + Sec(2));
    const double rt =
        rig.rt_monitor().LegitWindow(t, t + Sec(2)).mean();
    std::printf("%8.0f %14.0f %16.1f %12s\n", ToSeconds(t), cpu * 100, rt,
                t < attack_start ? "baseline" : "ATTACK");
  }

  // Clean pre-campaign window (the 20 s before the attack contain the
  // attacker's calibration bursts).
  const Samples base = rig.rt_monitor().LegitWindow(Sec(20), Sec(40));
  const Samples att =
      rig.rt_monitor().LegitWindow(attack_start + Sec(5), plot_to);
  const double cpu_base =
      rig.cloudwatch().cpu_util(hottest).WindowMean(plot_from, attack_start);
  const double cpu_att = rig.cloudwatch().cpu_util(hottest).WindowMean(
      attack_start + Sec(5), plot_to);
  std::printf("\nsummary: RT %.0fms -> %.0fms (%.1fx); 1s-sampled CPU "
              "%.0f%% -> %.0f%% (max over attack: %.0f%%)\n",
              base.mean(), att.mean(),
              base.mean() > 0 ? att.mean() / base.mean() : 0, cpu_base * 100,
              cpu_att * 100,
              rig.cloudwatch().cpu_util(hottest).WindowMax(
                  attack_start, plot_to) * 100);
  std::printf("paper (Fig 1): RT ~100ms -> >1s; utilization never visibly "
              "saturates at 1s granularity\n");
  return 0;
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
