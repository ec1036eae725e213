// End-to-end integration: the full operator stack (workload, monitors,
// autoscaler, IDS) against the full attacker stack (profile-informed
// campaign), asserting the paper's headline properties on a scaled-down
// SocialNetwork deployment:
//   * damage: legit mean RT degrades by a large factor;
//   * stealth: no autoscaling actions, no attributable IDS alerts,
//     coarse-monitor utilization stays moderate.

#include <gtest/gtest.h>

#include "scenario/builtin_apps.h"
#include "scenario/deployment.h"
#include "scenario/loader.h"

namespace grunt {
namespace {

TEST(Integration, GruntCampaignIsDamagingYetStealthy) {
  const auto spec = scenario::SocialNetworkScenario();  // 7000 users
  scenario::ScenarioRig rig(spec, 33);
  const auto& app = rig.app();
  const auto& cloudwatch = rig.cloudwatch();
  const auto& rt = rig.rt_monitor();

  rig.RunUntil(Sec(40));
  const Samples baseline = rt.LegitWindow(Sec(15), Sec(40));
  ASSERT_GT(baseline.count(), 10'000u);
  ASSERT_LT(baseline.mean(), 60.0);

  attack::GruntAttack grunt(rig.client(), {});
  const auto profile =
      scenario::TruthProfile(app, scenario::ScenarioRates(app, spec.workload));
  const SimTime attack_start =
      scenario::RunGrunt(rig.sim(), grunt, Sec(60), &profile, "campaign");
  // RunGrunt steps 10 s at a time from 40 s, so this bounds the campaign
  // to the 10 s step that ends at 2000 s, well inside the 7200 s cap.
  ASSERT_LE(rig.sim().Now(), Sec(2000));

  // --- damage ---
  const Samples attacked =
      rt.LegitWindow(attack_start + Sec(5), attack_start + Sec(60));
  ASSERT_GT(attacked.count(), 1'000u);
  EXPECT_GT(attacked.mean(), 8.0 * baseline.mean());
  EXPECT_GT(attacked.Percentile(95), 1000.0);

  // --- stealth ---
  // No scale action fired during the attack window.
  for (const auto& action : rig.autoscaler()->actions()) {
    EXPECT_LT(action.at, attack_start)
        << "autoscaler reacted to the attack: service "
        << app.service(action.service).name;
  }
  // No IDS alert attributable to attacker sessions.
  EXPECT_EQ(rig.ids()->attributed_attack_alerts(), 0u);
  EXPECT_EQ(rig.ids()->CountAlerts(cloud::AlertRule::kResourceSaturation),
            0u);
  // Coarse 1 s monitor never shows sustained saturation on any service.
  for (std::size_t i = 0; i < app.service_count(); ++i) {
    const auto sid = static_cast<microsvc::ServiceId>(i);
    EXPECT_LT(cloudwatch.cpu_util(sid).WindowMean(attack_start + Sec(5),
                                                  attack_start + Sec(60)),
              0.85)
        << app.service(sid).name;
  }

  // --- footprint ---
  const auto& report = grunt.report();
  EXPECT_GE(report.groups.size(), 3u);
  EXPECT_GT(report.bots_used, 50u);
  // The attack's mean created millibottleneck respects the stealth cap
  // (with feedback slack).
  for (const auto& g : report.groups) {
    if (g.bursts.size() > 5) {
      EXPECT_LT(g.MeanPmbMs(), 650.0);
    }
  }
}

TEST(Integration, AutoscalerDefeatsNaiveSustainedOverload) {
  // Contrast case: a sustained brute-force overload IS seen by the coarse
  // monitor and triggers scaling (and the saturation alert) — showing the
  // defenses work and Grunt's evasion is the interesting part.
  sim::Simulation sim;
  const auto app =
      scenario::BuildApplication(scenario::SocialNetworkScenario().topology);
  microsvc::Cluster cluster(sim, app, 34);
  cloud::ResourceMonitor cloudwatch(cluster, {Sec(1), "cw"});
  cloud::AutoScaler::Config scfg;
  scfg.provision_delay = Sec(5);
  cloud::AutoScaler scaler(cluster, cloudwatch, scfg);
  cloud::Ids ids(cluster, &cloudwatch, nullptr, {});
  cloudwatch.Start();
  scaler.Start();
  ids.Start();

  // Saturating open-loop flood on one path.
  workload::OpenLoopSource::Config wl;
  wl.rate = 400;  // text-service capacity is ~222/s
  wl.mix = workload::RequestMix::Uniform(
      {*app.FindRequestType("compose/text")});
  workload::OpenLoopSource flood(cluster, wl, 34);
  flood.Start();
  sim.RunUntil(Sec(90));

  EXPECT_GE(scaler.scale_up_count(), 1u);
  EXPECT_GE(ids.CountAlerts(cloud::AlertRule::kResourceSaturation), 1u);
}

}  // namespace
}  // namespace grunt
