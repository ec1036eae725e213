// Ablation for Sec VI "Impact of microservice's queue size": scales every
// backend thread pool (queue) and re-runs the calibrated Grunt campaign.
//
// Expected shape: larger queues force the attacker to spend more volume
// (bigger calibrated bursts / more requests) but do NOT stop the attack —
// "using very large queue sizes in microservices could not address Grunt".

#include <cstdio>
#include <exception>
#include <iostream>

#include "rig.h"
#include "scenario/builtin_apps.h"

using namespace grunt;
using namespace grunt::bench;

int main() try {
  Banner("Ablation: queue (thread-pool) size vs attack cost and damage",
         "larger queues raise the attack volume needed but don't stop it");

  Table table({"Queue scale", "UM threads", "AvgRT base (ms)",
               "AvgRT att (ms)", "RT factor", "Attack reqs", "Mean burst vol",
               "P_MB (ms)"});

  for (double queue_scale : {0.5, 1.0, 2.0, 4.0}) {
    std::printf("running queue_scale=%.1f...\n", queue_scale);
    scenario::DeploymentParams deploy;
    deploy.queue_scale = queue_scale;
    auto spec = scenario::SocialNetworkScenario(deploy);
    // Only the attack's cost is measured: no operator reacts to it.
    spec.operators.autoscaler_enabled = false;
    spec.operators.ids_enabled = false;
    ScenarioRig rig(spec, 91);
    rig.RunUntil(Sec(40));
    const auto& app = rig.app();
    const auto profile =
        TruthProfile(app, ScenarioRates(app, spec.workload));
    attack::GruntAttack grunt(rig.client(), {});
    const SimTime attack_start =
        RunGrunt(rig.sim(), grunt, Sec(60), &profile,
                 "the campaign at queue scale " + Table::Num(queue_scale, 1));

    const auto& report = grunt.report();
    RunningStats burst_vol;
    for (const auto& g : report.groups) {
      for (const auto& b : g.bursts) burst_vol.Add(b.count);
    }
    const Samples base = rig.rt_monitor().LegitWindow(Sec(15), Sec(40));
    const Samples att = rig.rt_monitor().LegitWindow(attack_start + Sec(5),
                                                     attack_start + Sec(60));
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
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
