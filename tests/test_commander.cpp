#include "attack/commander.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "attack/sim_target_client.h"
#include "fixtures.h"
#include "microsvc/cluster.h"
#include "trace/dependency.h"
#include "workload/workload.h"

namespace grunt::attack {
namespace {

/// White-box profile for a fixture app: baselines probed analytically,
/// pairwise dependencies from ground truth. Lets commander tests skip the
/// (separately tested) profiling phase.
ProfileResult FixtureProfile(const microsvc::Application& app,
                             double per_type_rate) {
  ProfileResult profile;
  const auto types = app.PublicDynamicTypes();
  std::int32_t max_id = 0;
  for (auto t : types) max_id = std::max(max_id, t);
  profile.baseline_rt_ms.assign(static_cast<std::size_t>(max_id + 1), 15.0);
  for (auto t : types) {
    profile.candidates.push_back(t);
    PublicUrl url;
    url.url_id = t;
    url.path = "/" + app.request_type(t).name;
    profile.urls.push_back(url);
  }
  trace::GroundTruth truth(
      app, std::vector<double>(app.request_type_count(), per_type_rate));
  auto groups = trace::DependencyGroups(app.request_type_count());
  for (const auto& dep : truth.AllPairs()) {
    if (trace::IsDependent(dep.type)) {
      profile.pairs.push_back(dep);
      groups.Union(dep.a, dep.b);
    }
  }
  for (const auto& g : groups.Groups()) profile.groups.push_back(g);
  return profile;
}

struct Rig {
  explicit Rig(microsvc::Application application, double per_type_rate)
      : app(std::move(application)),
        cluster(sim, app, 7),
        client(cluster),
        bots({}),
        profile(FixtureProfile(app, per_type_rate)) {
    workload::OpenLoopSource::Config wl;
    wl.rate = per_type_rate * static_cast<double>(app.PublicDynamicTypes().size());
    wl.mix = workload::RequestMix::Uniform(app.PublicDynamicTypes());
    source = std::make_unique<workload::OpenLoopSource>(cluster, wl, 7);
    source->Start();
    sim.RunUntil(Sec(5));
  }

  void RunUntilFlag(bool& flag, SimTime cap = Sec(2000)) {
    while (!flag && sim.Now() < cap) sim.RunUntil(sim.Now() + Sec(5));
    ASSERT_TRUE(flag);
  }

  sim::Simulation sim;
  microsvc::Application app;
  microsvc::Cluster cluster;
  SimTargetClient client;
  BotFarm bots;
  ProfileResult profile;
  std::unique_ptr<workload::OpenLoopSource> source;
};

TEST(GroupCommander, CalibrationFindsSaneBurstShape) {
  Rig rig(grunt::testing::TwoPathParallelApp(
              microsvc::ServiceTimeDist::kExponential),
          60.0);
  GroupCommander cmd(rig.client, rig.bots, {}, {0, 1}, rig.profile);
  bool done = false;
  cmd.Initialize([&] { done = true; });
  rig.RunUntilFlag(done);
  ASSERT_TRUE(cmd.initialized());
  ASSERT_EQ(cmd.stats().plans.size(), 2u);
  for (const auto& plan : cmd.stats().plans) {
    EXPECT_GE(plan.rate, 200.0);
    EXPECT_LE(plan.rate, 6400.0);
    EXPECT_GE(plan.count, 4);
    EXPECT_LE(plan.count, 4096);
    // Calibrated volume keeps the millibottleneck under the stealth cap.
    EXPECT_GT(plan.measured_pmb_ms, 0.0);
    EXPECT_LE(plan.measured_pmb_ms, kPmbLimitMs);
  }
}

TEST(GroupCommander, SequentialUpstreamPathRankedFirst) {
  Rig rig(grunt::testing::SequentialApp(
              microsvc::ServiceTimeDist::kExponential),
          40.0);
  GroupCommander cmd(rig.client, rig.bots, {}, {0, 1}, rig.profile);
  bool done = false;
  cmd.Initialize([&] { done = true; });
  rig.RunUntilFlag(done);
  // Type 0 ("up") triggers execution blocking: highest priority (Sec III-C).
  ASSERT_GE(cmd.stats().plans.size(), 1u);
  EXPECT_EQ(cmd.stats().plans[0].url, 0);
  EXPECT_EQ(cmd.stats().plans[0].kind, model::BlockingKind::kExecution);
}

TEST(GroupCommander, AttackMaintainsDamageAndStealth) {
  Rig rig(grunt::testing::TwoPathParallelApp(
              microsvc::ServiceTimeDist::kExponential),
          60.0);
  GroupCommander cmd(rig.client, rig.bots, {}, {0, 1}, rig.profile);
  bool init_done = false;
  cmd.Initialize([&] { init_done = true; });
  rig.RunUntilFlag(init_done);

  bool attack_done = false;
  cmd.Attack(rig.sim.Now() + Sec(30), [&] { attack_done = true; });
  rig.RunUntilFlag(attack_done);
  const GroupStats& stats = cmd.stats();
  EXPECT_GT(stats.bursts.size(), 10u);
  EXPECT_GT(stats.attack_requests, 100u);
  // Damage estimate reached a meaningful multiple of the ~15ms baseline
  // over the attack (mean of the probe-based t_min series)...
  const RunningStats tmin =
      stats.tmin_est_ms.WindowStats(0, stats.tmin_est_ms.back().time + 1);
  EXPECT_GT(tmin.mean(), 80.0);
  // ...while the average created millibottleneck respects the cap (with
  // control slack).
  EXPECT_LT(stats.MeanPmbMs(), 600.0);
}

TEST(GroupCommander, AlternatesAcrossPathsUnlessDisabled) {
  auto run = [&](bool alternate) {
    Rig rig(grunt::testing::TwoPathParallelApp(
                microsvc::ServiceTimeDist::kExponential),
            60.0);
    CommanderConfig cfg;
    cfg.alternate_paths = alternate;
    GroupCommander cmd(rig.client, rig.bots, cfg, {0, 1}, rig.profile);
    bool done = false;
    cmd.Initialize([&] { done = true; });
    rig.RunUntilFlag(done);
    bool attack_done = false;
    cmd.Attack(rig.sim.Now() + Sec(20), [&] { attack_done = true; });
    rig.RunUntilFlag(attack_done);
    // The initial mixed volley always covers every path (Sec III-B); what
    // the ablation changes is the steady-state rotation.
    std::map<std::int32_t, std::size_t> counts;
    for (const auto& b : cmd.stats().bursts) ++counts[b.url];
    return counts;
  };
  EXPECT_GE(run(true).size(), 2u);
  // All but the one mixed-volley burst land on a single path.
  const auto fixed = run(false);
  std::size_t max_count = 0, total = 0;
  for (const auto& [url, n] : fixed) {
    max_count = std::max(max_count, n);
    total += n;
  }
  EXPECT_GE(max_count + 1, total);
}

TEST(GroupCommander, LifecycleGuards) {
  Rig rig(grunt::testing::DisjointApp(
              microsvc::ServiceTimeDist::kExponential),
          40.0);
  GroupCommander cmd(rig.client, rig.bots, {}, {0}, rig.profile);
  EXPECT_THROW(cmd.Attack(Sec(100), [] {}), std::logic_error);
  EXPECT_THROW(GroupCommander(rig.client, rig.bots, {}, {}, rig.profile),
               std::invalid_argument);
}

TEST(GroupCommander, WarnsOnceWhenAPathHasNoMeasuredBaseline) {
  Rig rig(grunt::testing::TwoPathParallelApp(
              microsvc::ServiceTimeDist::kExponential),
          60.0);
  rig.profile.baseline_rt_ms.clear();  // no path has a measured baseline
  const auto warning = [](int url) {
    return "[WARN ] commander: no measured baseline for url " +
           std::to_string(url) +
           "; assuming 100 ms (kFallbackBaselineMs) — settle/trigger "
           "thresholds will be off if the real baseline differs\n";
  };
  ::testing::internal::CaptureStderr();
  GroupCommander cmd(rig.client, rig.bots, {}, {0, 1}, rig.profile);
  bool done = false;
  cmd.Initialize([&] { done = true; });
  rig.RunUntilFlag(done);  // every path and settle step falls back
  // A second commander warns for itself, once.
  GroupCommander other(rig.client, rig.bots, {}, {1, 0}, rig.profile);
  other.Initialize([] {});
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            warning(0) + warning(1));
  for (const auto& plan : cmd.stats().plans) {
    EXPECT_EQ(plan.baseline_ms, 100.0);
  }
}

TEST(GroupCommander, KalmanAblationStillFunctions) {
  Rig rig(grunt::testing::TwoPathParallelApp(
              microsvc::ServiceTimeDist::kExponential),
          60.0);
  CommanderConfig cfg;
  cfg.use_kalman = false;
  GroupCommander cmd(rig.client, rig.bots, cfg, {0, 1}, rig.profile);
  bool done = false;
  cmd.Initialize([&] { done = true; });
  rig.RunUntilFlag(done);
  bool attack_done = false;
  cmd.Attack(rig.sim.Now() + Sec(15), [&] { attack_done = true; });
  rig.RunUntilFlag(attack_done);
  EXPECT_GT(cmd.stats().bursts.size(), 5u);
}

}  // namespace
}  // namespace grunt::attack
