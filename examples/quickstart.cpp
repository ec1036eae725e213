// Quickstart: deploy the SocialNetwork benchmark in the simulator, drive it
// with legitimate closed-loop users, then launch a full Grunt attack
// campaign (profiling -> calibration -> alternating bursts) and compare the
// response time legitimate users see before and during the attack.
//
// This is the smallest end-to-end use of the public API:
//   scenario::SocialNetworkScenario + BuildApplication -> the target
//   workload::ClosedLoopWorkload -> background users
//   cloud::ResourceMonitor / ResponseTimeMonitor -> the operator's view
//   attack::SimTargetClient + GruntAttack -> the attacker

#include <cstdio>

#include "attack/grunt_attack.h"
#include "attack/sim_target_client.h"
#include "cloud/monitor.h"
#include "microsvc/cluster.h"
#include "scenario/builtin_apps.h"
#include "scenario/loader.h"
#include "sim/simulation.h"
#include "util/table.h"
#include "workload/workload.h"

int main() {
  using namespace grunt;

  // --- target system ---
  const scenario::ScenarioSpec spec = scenario::SocialNetworkScenario();
  sim::Simulation sim;
  const microsvc::Application app = scenario::BuildApplication(spec.topology);
  microsvc::Cluster cluster(sim, app, /*seed=*/42);

  // --- legitimate users: 7000 closed-loop users, 7 s think time ---
  workload::ClosedLoopWorkload::Config wl;
  wl.users = 7000;
  wl.navigator = scenario::BuildNavigator(app, spec.workload);
  workload::ClosedLoopWorkload users(cluster, wl, /*seed=*/42);
  users.Start();

  // --- operator-side monitoring (1 s granularity, CloudWatch-style) ---
  cloud::ResourceMonitor monitor(cluster, {Sec(1), "cloudwatch"});
  cloud::ResponseTimeMonitor rt(cluster, {Sec(1), "rt"});
  monitor.Start();
  rt.Start();

  // --- warm up, then measure the baseline ---
  const SimTime kBaselineFrom = Sec(20), kBaselineTo = Sec(50);
  sim.RunUntil(kBaselineTo);
  const Samples baseline = rt.LegitWindow(kBaselineFrom, kBaselineTo);
  std::printf("baseline: %zu legit requests, mean RT %.1f ms, p95 %.1f ms\n",
              baseline.count(), baseline.mean(), baseline.Percentile(95));
  for (std::size_t i = 0; i < app.service_count(); ++i) {
    const auto sid = static_cast<microsvc::ServiceId>(i);
    const double util = monitor.cpu_util(sid).WindowMean(kBaselineFrom,
                                                         kBaselineTo);
    if (util > 0.25) {
      std::printf("  busy service %-16s util %.0f%%\n",
                  app.service(sid).name.c_str(), util * 100);
    }
  }

  // --- the attacker: blackbox client + full Grunt campaign ---
  attack::SimTargetClient client(cluster);
  attack::GruntConfig cfg;
  attack::GruntAttack grunt(client, cfg);

  bool finished = false;
  SimTime attack_began = 0;
  grunt.OnAttackPhaseStart([&](SimTime at) {
    attack_began = at;
    std::printf("\nattack phase begins at t=%.0fs (profiling+calibration "
                "took %.0fs)\n",
                ToSeconds(at), ToSeconds(at - kBaselineTo));
  });
  grunt.Run(/*attack_duration=*/Sec(60),
            [&](const attack::GruntReport& report) {
              finished = true;
              std::printf("\ncampaign done: %zu groups attacked, %zu bots, "
                          "%llu attack requests\n",
                          report.groups.size(), report.bots_used,
                          static_cast<unsigned long long>(
                              report.attack_requests));
              std::printf("profiler found %zu dependency groups:\n",
                          report.profile.groups.size());
              for (const auto& g : report.profile.groups) {
                std::printf("  {");
                for (std::size_t i = 0; i < g.size(); ++i) {
                  std::printf("%s%s", i ? ", " : "",
                              app.request_type(g[i]).name.c_str());
                }
                std::printf("}\n");
              }
              for (const auto& g : report.groups) {
                std::printf("  group: m=%d bursts=%zu avg P_MB=%.0f ms "
                            "avg t_min=%.0f ms\n",
                            g.paths_used, g.bursts.size(), g.MeanPmbMs(),
                            g.MeanTminMs());
              }
            });
  // Drive the simulation until the campaign reports back (bounded).
  while (!finished && sim.Now() < Sec(7200)) {
    sim.RunUntil(sim.Now() + Sec(10));
  }
  if (!finished) {
    std::fprintf(stderr, "campaign did not finish\n");
    return 1;
  }

  // --- attack-window damage as legitimate users saw it ---
  const Samples attacked =
      rt.LegitWindow(attack_began + Sec(5), attack_began + Sec(60));
  std::printf("\nunder attack: %zu legit requests, mean RT %.1f ms, "
              "p95 %.1f ms (%.1fx baseline mean)\n",
              attacked.count(), attacked.mean(), attacked.Percentile(95),
              baseline.mean() > 0 ? attacked.mean() / baseline.mean() : 0.0);
  return 0;
}
