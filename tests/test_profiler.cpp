#include "attack/profiler.h"

#include <gtest/gtest.h>

#include "attack/sim_target_client.h"
#include "fixtures.h"
#include "microsvc/cluster.h"
#include "workload/workload.h"

namespace grunt::attack {
namespace {

/// Profiles `app` under a light uniform background load and returns the
/// result. Uses exponential service times: the profiler must work on the
/// noisy system, not an idealized one.
ProfileResult ProfileApp(const microsvc::Application& app,
                         double per_type_rate) {
  sim::Simulation sim;
  microsvc::Cluster cluster(sim, app, 5);
  workload::OpenLoopSource::Config wl;
  wl.rate = per_type_rate * static_cast<double>(app.PublicDynamicTypes().size());
  wl.mix = workload::RequestMix::Uniform(app.PublicDynamicTypes());
  workload::OpenLoopSource src(cluster, wl, 5);
  src.Start();
  sim.RunUntil(Sec(5));

  SimTargetClient client(cluster);
  BotFarm bots({});
  Profiler profiler(client, bots);
  bool done = false;
  ProfileResult result;
  profiler.Run([&](ProfileResult r) {
    result = std::move(r);
    done = true;
  });
  while (!done && sim.Now() < Sec(3000)) sim.RunUntil(sim.Now() + Sec(5));
  EXPECT_TRUE(done) << "profiling did not terminate";
  return result;
}

TEST(Profiler, DetectsParallelDependency) {
  const auto app = grunt::testing::TwoPathParallelApp(
      microsvc::ServiceTimeDist::kExponential);
  const auto result = ProfileApp(app, 60.0);
  EXPECT_EQ(result.InferredType(0, 1), trace::DepType::kParallel);
  ASSERT_EQ(result.groups.size(), 1u);
  EXPECT_EQ(result.groups[0].size(), 2u);
}

TEST(Profiler, DetectsSequentialDependencyWithDirection) {
  const auto app = grunt::testing::SequentialApp(
      microsvc::ServiceTimeDist::kExponential);
  const auto result = ProfileApp(app, 40.0);
  const auto inferred = result.InferredType(0, 1);
  // "up" (type 0) must come out as the upstream side.
  EXPECT_EQ(inferred, trace::DepType::kSequentialAUp);
  EXPECT_EQ(result.InferredType(1, 0), trace::DepType::kSequentialBUp);
}

TEST(Profiler, ReportsNoDependencyForDisjointPaths) {
  const auto app = grunt::testing::DisjointApp(
      microsvc::ServiceTimeDist::kExponential);
  const auto result = ProfileApp(app, 60.0);
  EXPECT_EQ(result.InferredType(0, 1), trace::DepType::kNone);
  EXPECT_EQ(result.groups.size(), 2u);  // two singletons
}

TEST(Profiler, ExcludesStaticUrlsFromCandidates) {
  microsvc::Application::Builder b;
  b.SetNetLatency(Us(200));
  const auto gw = b.AddService(grunt::testing::Svc("gw", 512, 8));
  const auto w = b.AddService(grunt::testing::Svc("w", 32, 2));
  b.AddRequestType(
      grunt::testing::Type("dyn", {{gw, Us(200), 0}, {w, Us(5000), 0}}));
  microsvc::RequestTypeSpec st;
  st.name = "asset";
  st.is_static = true;
  b.AddRequestType(st);
  const auto app = std::move(b).Build();
  const auto result = ProfileApp(app, 20.0);
  ASSERT_EQ(result.urls.size(), 2u);
  ASSERT_EQ(result.candidates.size(), 1u);
  EXPECT_EQ(result.candidates[0], 0);
  // A single candidate has no pairs and forms its own group.
  EXPECT_TRUE(result.pairs.empty());
  ASSERT_EQ(result.groups.size(), 1u);
}

TEST(Profiler, BaselinesMeasuredForEveryCandidate) {
  const auto app = grunt::testing::TwoPathParallelApp(
      microsvc::ServiceTimeDist::kExponential);
  const auto result = ProfileApp(app, 40.0);
  for (std::int32_t url : result.candidates) {
    EXPECT_GT(result.baseline_rt_ms[static_cast<std::size_t>(url)], 1.0);
    EXPECT_LT(result.baseline_rt_ms[static_cast<std::size_t>(url)], 200.0);
  }
}

TEST(Profiler, EvidenceRecordsSweepAndVerdicts) {
  const auto app = grunt::testing::TwoPathParallelApp(
      microsvc::ServiceTimeDist::kExponential);
  const auto result = ProfileApp(app, 60.0);
  ASSERT_EQ(result.evidence.size(), 1u);
  const auto& ev = result.evidence[0];
  EXPECT_FALSE(ev.volumes.empty());
  EXPECT_EQ(ev.volumes.size(), ev.a_blocks_b.size());
  // Parallel: no interference at the lowest volume, interference later.
  EXPECT_FALSE(ev.a_blocks_b.front());
  EXPECT_TRUE(ev.a_blocks_b.back() || ev.b_blocks_a.back());
}

TEST(Profiler, SecondRunOnSameInstanceThrows) {
  sim::Simulation sim;
  const auto app = grunt::testing::DisjointApp();
  microsvc::Cluster cluster(sim, app, 1);
  SimTargetClient client(cluster);
  BotFarm bots({});
  Profiler profiler(client, bots);
  profiler.Run([](ProfileResult) {});
  EXPECT_THROW(profiler.Run([](ProfileResult) {}), std::logic_error);
}

}  // namespace
}  // namespace grunt::attack
