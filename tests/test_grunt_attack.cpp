#include "attack/grunt_attack.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "attack/sim_target_client.h"
#include "cloud/monitor.h"
#include "fixtures.h"
#include "microsvc/cluster.h"
#include "workload/workload.h"

namespace grunt::attack {
namespace {

struct Rig {
  explicit Rig(microsvc::Application application, double total_rate)
      : app(std::move(application)), cluster(sim, app, 13), client(cluster),
        rt(cluster, {Sec(1), "rt"}) {
    workload::OpenLoopSource::Config wl;
    wl.rate = total_rate;
    wl.mix = workload::RequestMix::Uniform(app.PublicDynamicTypes());
    source = std::make_unique<workload::OpenLoopSource>(cluster, wl, 13);
    source->Start();
    rt.Start();
    sim.RunUntil(Sec(10));
  }

  sim::Simulation sim;
  microsvc::Application app;
  microsvc::Cluster cluster;
  SimTargetClient client;
  cloud::ResponseTimeMonitor rt;
  std::unique_ptr<workload::OpenLoopSource> source;
};

TEST(GruntAttack, FullCampaignDamagesParallelGroup) {
  Rig rig(grunt::testing::TwoPathParallelApp(
              microsvc::ServiceTimeDist::kExponential),
          120.0);
  const Samples baseline = rig.rt.LegitWindow(Sec(2), Sec(10));
  ASSERT_GT(baseline.count(), 100u);

  GruntAttack grunt(rig.client, {});
  bool done = false;
  SimTime attack_start = 0;
  grunt.OnAttackPhaseStart([&](SimTime at) { attack_start = at; });
  grunt.Run(Sec(40), [&](const GruntReport&) { done = true; });
  while (!done && rig.sim.Now() < Sec(2000)) {
    rig.sim.RunUntil(rig.sim.Now() + Sec(5));
  }
  ASSERT_TRUE(done);
  ASSERT_GT(attack_start, 0);

  const GruntReport& report = grunt.report();
  ASSERT_EQ(report.profile.groups.size(), 1u);  // {a, b}
  ASSERT_EQ(report.groups.size(), 1u);
  EXPECT_GT(report.attack_requests, 100u);
  EXPECT_GT(report.bots_used, 10u);
  EXPECT_EQ(report.bots_used, grunt.bots().bot_count());

  const Samples attacked =
      rig.rt.LegitWindow(attack_start + Sec(5), attack_start + Sec(40));
  ASSERT_GT(attacked.count(), 100u);
  EXPECT_GT(attacked.mean(), 4.0 * baseline.mean());
}

TEST(GruntAttack, RunWithProfileSkipsProfiling) {
  Rig rig(grunt::testing::TwoPathParallelApp(
              microsvc::ServiceTimeDist::kExponential),
          120.0);
  ProfileResult profile;
  profile.urls = rig.client.CrawlUrls();
  profile.candidates = {0, 1};
  profile.baseline_rt_ms = {15.0, 15.0};
  trace::PairwiseDep dep;
  dep.a = 0;
  dep.b = 1;
  dep.type = trace::DepType::kParallel;
  profile.pairs = {dep};
  profile.groups = {{0, 1}};

  GruntAttack grunt(rig.client, {});
  bool done = false;
  SimTime start = 0;
  grunt.OnAttackPhaseStart([&](SimTime at) { start = at; });
  grunt.RunWithProfile(profile, Sec(20), [&](const GruntReport&) {
    done = true;
  });
  while (!done && rig.sim.Now() < Sec(1000)) {
    rig.sim.RunUntil(rig.sim.Now() + Sec(5));
  }
  ASSERT_TRUE(done);
  // Calibration alone is far faster than a profile sweep.
  EXPECT_LT(start, Sec(120));
  EXPECT_FALSE(grunt.report().groups.empty());
}

TEST(GruntAttack, ReplayFiresFixedScheduleWithoutCalibration) {
  Rig rig(grunt::testing::TwoPathParallelApp(
              microsvc::ServiceTimeDist::kExponential),
          120.0);
  ProfileResult profile;
  profile.urls = rig.client.CrawlUrls();
  profile.candidates = {0, 1};
  profile.baseline_rt_ms = {15.0, 15.0};
  profile.groups = {{0, 1}};

  GroupReplay schedule;
  for (const std::int32_t url : {0, 1}) {
    PathPlan plan;
    plan.url = url;
    plan.baseline_ms = 15.0;
    plan.rate = 2000.0;
    plan.count = 40;
    schedule.plans.push_back(plan);
    schedule.intervals.push_back(Ms(400));
  }
  schedule.paths_used = 2;

  GruntConfig cfg;
  cfg.replay = {schedule};
  GruntAttack grunt(rig.client, cfg);
  bool done = false;
  SimTime start = 0;
  grunt.OnAttackPhaseStart([&](SimTime at) { start = at; });
  const SimTime launched = rig.sim.Now();
  grunt.RunWithProfile(profile, Sec(20), [&](const GruntReport&) {
    done = true;
  });
  while (!done && rig.sim.Now() < Sec(1000)) {
    rig.sim.RunUntil(rig.sim.Now() + Sec(5));
  }
  ASSERT_TRUE(done);
  // No rate sweep, no L-doubling, no m trial: the burst phase starts
  // immediately instead of after a calibration phase.
  EXPECT_LT(start - launched, Ms(1));

  const GruntReport& report = grunt.report();
  ASSERT_EQ(report.groups.size(), 1u);
  const GroupStats& g = report.groups[0];
  EXPECT_EQ(g.paths_used, 2);
  ASSERT_GT(g.bursts.size(), 4u);
  // Feedback adaptation is frozen: every burst fires the installed plan
  // verbatim, however the target responds.
  for (const auto& b : g.bursts) {
    EXPECT_EQ(b.count, 40);
    EXPECT_DOUBLE_EQ(b.rate, 2000.0);
  }
}

TEST(GruntAttack, ReplayEntryCountMustMatchGroups) {
  Rig rig(grunt::testing::TwoPathParallelApp(
              microsvc::ServiceTimeDist::kExponential),
          120.0);
  ProfileResult profile;
  profile.urls = rig.client.CrawlUrls();
  profile.candidates = {0, 1};
  profile.baseline_rt_ms = {15.0, 15.0};
  profile.groups = {{0, 1}};

  GruntConfig cfg;
  cfg.replay = {GroupReplay{}, GroupReplay{}};  // two entries, one group
  GruntAttack grunt(rig.client, cfg);
  EXPECT_THROW(
      grunt.RunWithProfile(profile, Sec(5), [](const GruntReport&) {}),
      std::invalid_argument);
}

TEST(GruntAttack, NoGroupsFinishesWithoutAttacking) {
  Rig rig(grunt::testing::DisjointApp(
              microsvc::ServiceTimeDist::kExponential),
          80.0);
  ProfileResult profile;
  profile.urls = rig.client.CrawlUrls();
  profile.candidates = {0, 1};
  profile.baseline_rt_ms = {15.0, 15.0};  // no groups: nothing to attack

  GruntAttack grunt(rig.client, {});
  bool done = false;
  grunt.RunWithProfile(profile, Sec(10), [&](const GruntReport& r) {
    done = true;
    EXPECT_TRUE(r.groups.empty());
    EXPECT_EQ(r.attack_requests, 0u);
  });
  rig.sim.RunUntil(rig.sim.Now() + Sec(5));
  EXPECT_TRUE(done);
}

TEST(GruntAttack, MaxGroupsLimitsTargets) {
  Rig rig(grunt::testing::DisjointApp(
              microsvc::ServiceTimeDist::kExponential),
          80.0);
  ProfileResult profile;
  profile.urls = rig.client.CrawlUrls();
  profile.candidates = {0, 1};
  profile.baseline_rt_ms = {15.0, 15.0};
  profile.groups = {{0}, {1}};

  GruntConfig cfg;
  cfg.max_groups = 1;
  GruntAttack grunt(rig.client, cfg);
  bool done = false;
  grunt.RunWithProfile(profile, Sec(15), [&](const GruntReport& r) {
    done = true;
    EXPECT_EQ(r.groups.size(), 1u);
  });
  while (!done && rig.sim.Now() < Sec(1000)) {
    rig.sim.RunUntil(rig.sim.Now() + Sec(5));
  }
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace grunt::attack
