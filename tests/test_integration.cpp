// End-to-end integration: the full operator stack (workload, monitors,
// autoscaler, IDS) against the full attacker stack (profile-informed
// campaign), asserting the paper's headline properties on a scaled-down
// SocialNetwork deployment:
//   * damage: legit mean RT degrades by a large factor;
//   * stealth: no autoscaling actions, no attributable IDS alerts,
//     coarse-monitor utilization stays moderate.

#include <gtest/gtest.h>

#include "attack/grunt_attack.h"
#include "attack/sim_target_client.h"
#include "cloud/autoscaler.h"
#include "cloud/ids.h"
#include "cloud/monitor.h"
#include "microsvc/cluster.h"
#include "scenario/builtin_apps.h"
#include "scenario/loader.h"
#include "trace/dependency.h"
#include "workload/workload.h"

namespace grunt {
namespace {

attack::ProfileResult TruthProfile(const microsvc::Application& app,
                                   const workload::RequestMix& mix,
                                   double total_rate) {
  attack::ProfileResult profile;
  std::vector<double> rates(app.request_type_count(), 0.0);
  double total_w = 0;
  for (double w : mix.weights) total_w += w;
  for (std::size_t i = 0; i < mix.types.size(); ++i) {
    rates[static_cast<std::size_t>(mix.types[i])] =
        total_rate * mix.weights[i] / total_w;
  }
  profile.baseline_rt_ms.assign(app.request_type_count(), 20.0);
  for (auto t : app.PublicDynamicTypes()) {
    profile.candidates.push_back(t);
    attack::PublicUrl url;
    url.url_id = t;
    url.path = "/" + app.request_type(t).name;
    profile.urls.push_back(url);
  }
  trace::GroundTruth truth(app, rates);
  trace::DependencyGroups groups(app.request_type_count());
  for (const auto& dep : truth.AllPairs()) {
    if (trace::IsDependent(dep.type)) {
      profile.pairs.push_back(dep);
      groups.Union(dep.a, dep.b);
    }
  }
  for (const auto& g : groups.Groups()) {
    if (!app.request_type(g.front()).is_static || g.size() > 1) {
      profile.groups.push_back(g);
    }
  }
  return profile;
}

TEST(Integration, GruntCampaignIsDamagingYetStealthy) {
  sim::Simulation sim;
  const auto spec = scenario::SocialNetworkScenario();
  const auto app = scenario::BuildApplication(spec.topology);
  microsvc::Cluster cluster(sim, app, 33);

  workload::ClosedLoopWorkload::Config wl;
  wl.users = 7000;
  wl.navigator = scenario::BuildNavigator(app, spec.workload);
  workload::ClosedLoopWorkload users(cluster, wl, 33);
  users.Start();

  cloud::ResourceMonitor cloudwatch(cluster, {Sec(1), "cloudwatch"});
  cloud::ResponseTimeMonitor rt(cluster, {Sec(1), "rt"});
  cloud::AutoScaler scaler(cluster, cloudwatch, {});
  cloud::Ids ids(cluster, &cloudwatch, nullptr, {});
  cloudwatch.Start();
  rt.Start();
  scaler.Start();
  ids.Start();

  sim.RunUntil(Sec(40));
  const Samples baseline = rt.LegitWindow(Sec(15), Sec(40));
  ASSERT_GT(baseline.count(), 10'000u);
  ASSERT_LT(baseline.mean(), 60.0);

  attack::SimTargetClient client(cluster);
  attack::GruntConfig cfg;
  attack::GruntAttack grunt(client, cfg);
  const auto profile =
      TruthProfile(app, scenario::BuildRequestMix(app, spec.workload), 1000.0);

  bool done = false;
  SimTime attack_start = 0;
  grunt.OnAttackPhaseStart([&](SimTime at) { attack_start = at; });
  grunt.RunWithProfile(profile, Sec(60),
                       [&](const attack::GruntReport&) { done = true; });
  while (!done && sim.Now() < Sec(2000)) sim.RunUntil(sim.Now() + Sec(10));
  ASSERT_TRUE(done);

  // --- damage ---
  const Samples attacked =
      rt.LegitWindow(attack_start + Sec(5), attack_start + Sec(60));
  ASSERT_GT(attacked.count(), 1'000u);
  EXPECT_GT(attacked.mean(), 8.0 * baseline.mean());
  EXPECT_GT(attacked.Percentile(95), 1000.0);

  // --- stealth ---
  // No scale action fired during the attack window.
  for (const auto& action : scaler.actions()) {
    EXPECT_LT(action.at, attack_start)
        << "autoscaler reacted to the attack: service "
        << app.service(action.service).name;
  }
  // No IDS alert attributable to attacker sessions.
  EXPECT_EQ(ids.attributed_attack_alerts(), 0u);
  EXPECT_EQ(ids.CountAlerts(cloud::AlertRule::kResourceSaturation), 0u);
  // Coarse 1 s monitor never shows sustained saturation on any service.
  for (std::size_t i = 0; i < cluster.service_count(); ++i) {
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
