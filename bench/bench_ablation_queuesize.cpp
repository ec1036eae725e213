// Ablation for Sec VI "Impact of microservice's queue size": scales every
// backend thread pool (queue) and re-runs the calibrated Grunt campaign.
//
// Expected shape: larger queues force the attacker to spend more volume
// (bigger calibrated bursts / more requests) but do NOT stop the attack —
// "using very large queue sizes in microservices could not address Grunt".

#include <cstdio>
#include <iostream>

#include "rig.h"
#include "scenario/builtin_apps.h"
#include "scenario/loader.h"

using namespace grunt;
using namespace grunt::bench;

int main() {
  Banner("Ablation: queue (thread-pool) size vs attack cost and damage",
         "larger queues raise the attack volume needed but don't stop it");

  Table table({"Queue scale", "UM threads", "AvgRT base (ms)",
               "AvgRT att (ms)", "RT factor", "Attack reqs", "Mean burst vol",
               "P_MB (ms)"});

  for (double queue_scale : {0.5, 1.0, 2.0, 4.0}) {
    std::printf("running queue_scale=%.1f...\n", queue_scale);
    scenario::DeploymentParams deploy;
    deploy.queue_scale = queue_scale;
    const auto spec = scenario::SocialNetworkScenario(deploy);

    // Wire the deployment by hand: this ablation runs only an RT monitor.
    sim::Simulation sim;
    const auto app = scenario::BuildApplication(spec.topology);
    microsvc::Cluster cluster(sim, app, 91);
    workload::ClosedLoopWorkload::Config wl;
    wl.users = spec.workload.users;
    wl.navigator = scenario::BuildNavigator(app, spec.workload);
    workload::ClosedLoopWorkload users(cluster, wl, 91);
    users.Start();
    cloud::ResponseTimeMonitor rt(cluster, {Sec(1), "rt"});
    rt.Start();
    sim.RunUntil(Sec(40));

    attack::SimTargetClient client(cluster);
    const auto profile =
        TruthProfile(app, ScenarioRates(app, spec.workload));
    attack::GruntAttack grunt(client, {});
    bool done = false;
    SimTime attack_start = 0;
    grunt.OnAttackPhaseStart([&](SimTime at) { attack_start = at; });
    grunt.RunWithProfile(profile, Sec(60),
                         [&](const attack::GruntReport&) { done = true; });
    while (!done && sim.Now() < Sec(2400)) sim.RunUntil(sim.Now() + Sec(10));

    const auto& report = grunt.report();
    RunningStats burst_vol;
    for (const auto& g : report.groups) {
      for (const auto& b : g.bursts) burst_vol.Add(b.count);
    }
    const Samples base = rt.LegitWindow(Sec(15), Sec(40));
    const Samples att =
        rt.LegitWindow(attack_start + Sec(5), attack_start + Sec(60));
    const auto um = *app.FindService("compose-post");
    table.AddRow(
        {Table::Num(queue_scale, 1),
         Table::Int(app.service(um).threads_per_replica),
         Table::Num(base.mean()), Table::Num(att.mean()),
         Table::Num(base.mean() > 0 ? att.mean() / base.mean() : 0, 1),
         Table::Int(static_cast<std::int64_t>(report.attack_requests)),
         Table::Num(burst_vol.mean(), 1),
         Table::Num(report.MeanPmbMs(), 0)});
  }
  std::printf("\n");
  table.Print(std::cout);
  std::printf("\npaper (Sec VI): bigger queues need more attack volume (and "
              "cost the operator more hardware) but the blocking effects "
              "persist\n");
  return 0;
}
