// Reproduces Fig 15: Grunt attack under a real-world-style "Large
// Variation" workload trace with auto-scaling enabled.
//
// Expected shape: (a) the legit workload swings widely; (b) the autoscaler
// takes scale-up/down actions in response to the BASELINE swings (not the
// attack); (c) the Commander continuously re-tunes the attack volume; (d)
// legit latency is pinned near the damage goal throughout.

#include <cstdio>

#include "rig.h"
#include "scenario/builtin_apps.h"
#include "scenario/loader.h"

int main() {
  using namespace grunt;
  using namespace grunt::bench;

  Banner("Fig 15: attack under the Large-Variation trace with autoscaling",
         "volume adapts to workload and scaling; damage goal maintained");

  // Open-loop trace-driven workload instead of the closed-loop population.
  const auto spec = scenario::SocialNetworkScenario();
  sim::Simulation sim;
  const auto app = scenario::BuildApplication(spec.topology);
  microsvc::Cluster cluster(sim, app, 15);

  const auto mix = scenario::BuildRequestMix(app, spec.workload);
  workload::OpenLoopSource::Config wl;
  wl.rate = 700;
  wl.mix = mix;
  workload::OpenLoopSource source(cluster, wl, 15);
  source.Start();

  cloud::ResourceMonitor cloudwatch(cluster, {Sec(1), "cloudwatch"});
  cloud::ResponseTimeMonitor rt(cluster, {Sec(1), "rt"});
  cloud::AutoScaler::Config scfg;
  scfg.provision_delay = Sec(15);
  cloud::AutoScaler scaler(cluster, cloudwatch, scfg);
  cloudwatch.Start();
  rt.Start();
  scaler.Start();

  // Large-Variation trace over [40s, 340s): 300..1500 req/s.
  const auto trace =
      workload::MakeLargeVariationTrace(Sec(40), Sec(300), Sec(10), 300.0,
                                        1500.0, 15);
  trace.Apply(sim, source);

  sim.RunUntil(Sec(40));

  attack::SimTargetClient client(cluster);
  std::vector<double> rates(app.request_type_count(), 0.0);
  {
    double total_w = 0;
    for (double w : mix.weights) total_w += w;
    for (std::size_t i = 0; i < mix.types.size(); ++i) {
      rates[static_cast<std::size_t>(mix.types[i])] =
          700.0 * mix.weights[i] / total_w;
    }
  }
  const auto profile = TruthProfile(app, rates);
  attack::GruntConfig cfg;
  attack::GruntAttack grunt(client, cfg);
  bool done = false;
  SimTime attack_start = 0;
  grunt.OnAttackPhaseStart([&](SimTime at) { attack_start = at; });
  grunt.RunWithProfile(profile, Sec(200),
                       [&](const attack::GruntReport&) { done = true; });
  while (!done && sim.Now() < Sec(3600)) sim.RunUntil(sim.Now() + Sec(10));
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
                cloudwatch.replicas(cp).WindowMean(t, t + Sec(10)),
                vol.count() ? vol.mean() : 0.0,
                rt.LegitWindow(t, t + Sec(10)).mean());
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

  const Samples att =
      rt.LegitWindow(attack_start + Sec(10), attack_start + Sec(200));
  std::printf("\nattack-window legit RT: mean %.0f ms, p95 %.0f ms "
              "(goal >= 1000 ms mean)\n",
              att.mean(), att.Percentile(95));
  std::printf("paper (Fig 15): commander re-tunes volume through scale-ups "
              "and workload swings, keeping RT at the damage goal\n");
  return 0;
}
