// The built-in application scenarios (SocialNetwork, µBench generator)
// exercised through the scenario API every caller uses: spec factory ->
// BuildApplication / BuildRequestMix / BuildNavigator.

#include <gtest/gtest.h>

#include "microsvc/cluster.h"
#include "scenario/builtin_apps.h"
#include "scenario/generate.h"
#include "scenario/loader.h"
#include "sim/simulation.h"
#include "util/stats.h"
#include "workload/workload.h"

using grunt::Samples;

namespace grunt::scenario {
namespace {

TEST(SocialNetwork, TopologyShape) {
  const auto app = BuildApplication(SocialNetworkScenario().topology);
  EXPECT_EQ(app.name(), "socialnetwork");
  EXPECT_GE(app.service_count(), 25u);
  EXPECT_EQ(app.request_type_count(), 14u);  // 13 dynamic + 1 static
  EXPECT_EQ(app.PublicDynamicTypes().size(), 13u);
  // Key shared upstream services exist with small slot pools.
  for (const char* name : {"compose-post", "home-timeline", "user-timeline"}) {
    auto id = app.FindService(name);
    ASSERT_TRUE(id.has_value()) << name;
    EXPECT_LE(app.service(*id).threads_per_replica, 32) << name;
  }
  // The gateway is effectively un-overflowable.
  EXPECT_GE(app.service(*app.FindService("nginx")).threads_per_replica, 1024);
}

TEST(SocialNetwork, OptionsValidation) {
  DeploymentParams no_replicas;
  no_replicas.replica_scale = 0;
  EXPECT_THROW(SocialNetworkScenario(no_replicas), std::invalid_argument);
  DeploymentParams no_capacity;
  no_capacity.capacity_scale = 0.0;
  EXPECT_THROW(SocialNetworkScenario(no_capacity), std::invalid_argument);
}

TEST(SocialNetwork, ReplicaScaleGrowsBackendOnly) {
  const auto base = BuildApplication(SocialNetworkScenario().topology);
  DeploymentParams deploy;
  deploy.replica_scale = 2;
  const auto big = BuildApplication(SocialNetworkScenario(deploy).topology);
  const auto cp = *big.FindService("compose-post");
  EXPECT_EQ(big.service(cp).initial_replicas,
            2 * base.service(cp).initial_replicas);
  const auto gw = *big.FindService("nginx");
  EXPECT_EQ(big.service(gw).initial_replicas, 1);
}

TEST(SocialNetwork, CapacityScaleShortensDemands) {
  const auto slow = BuildApplication(SocialNetworkScenario().topology);
  DeploymentParams deploy;
  deploy.capacity_scale = 2.0;
  const auto fast = BuildApplication(SocialNetworkScenario(deploy).topology);
  const auto t = *slow.FindRequestType("compose/text");
  EXPECT_EQ(fast.request_type(t).hops[3].cpu_demand * 2,
            slow.request_type(t).hops[3].cpu_demand);
}

TEST(SocialNetwork, MixCoversAllTypesAndValidates) {
  const auto spec = SocialNetworkScenario();
  const auto app = BuildApplication(spec.topology);
  const auto mix = BuildRequestMix(app, spec.workload);
  EXPECT_NO_THROW(mix.Validate());
  EXPECT_EQ(mix.types.size(), app.request_type_count());
  const auto nav = BuildNavigator(app, spec.workload);
  EXPECT_NO_THROW(nav.Validate());
}

TEST(SocialNetwork, BaselineIsHealthyAtReferenceLoad) {
  // 7000 users / 7 s think ~= 1000 req/s must be stable: bounded RT and no
  // runaway queues.
  sim::Simulation sim;
  const auto spec = SocialNetworkScenario();
  const auto app = BuildApplication(spec.topology);
  microsvc::Cluster cluster(sim, app, 3);
  workload::ClosedLoopWorkload::Config wl;
  wl.users = 7000;
  wl.navigator = BuildNavigator(app, spec.workload);
  workload::ClosedLoopWorkload load(cluster, wl, 3);
  load.Start();
  sim.RunUntil(Sec(30));
  Samples rt;
  for (const auto& rec : cluster.completions()) {
    if (rec.start >= Sec(10)) rt.Add(ToMillis(rec.end - rec.start));
  }
  ASSERT_GT(rt.count(), 10'000u);
  EXPECT_LT(rt.mean(), 60.0);
  EXPECT_LT(rt.Percentile(95), 200.0);
  EXPECT_LT(cluster.in_flight(), 600u);
}

TEST(MuBench, DeterministicPerSeed) {
  const auto a = BuildApplication(GenerateMubench(1).topology);
  const auto b = BuildApplication(GenerateMubench(1).topology);
  ASSERT_EQ(a.service_count(), b.service_count());
  ASSERT_EQ(a.request_type_count(), b.request_type_count());
  for (std::size_t i = 0; i < a.request_type_count(); ++i) {
    const auto& ta = a.request_type(static_cast<std::int32_t>(i));
    const auto& tb = b.request_type(static_cast<std::int32_t>(i));
    ASSERT_EQ(ta.hops.size(), tb.hops.size());
    for (std::size_t h = 0; h < ta.hops.size(); ++h) {
      EXPECT_EQ(ta.hops[h].cpu_demand, tb.hops[h].cpu_demand);
    }
  }
  const auto c = BuildApplication(GenerateMubench(999).topology);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.request_type_count() && !any_diff; ++i) {
    const auto& ta = a.request_type(static_cast<std::int32_t>(i));
    const auto& tc = c.request_type(static_cast<std::int32_t>(i));
    any_diff = ta.hops.size() != tc.hops.size();
    for (std::size_t h = 0; !any_diff && h < ta.hops.size(); ++h) {
      any_diff = ta.hops[h].cpu_demand != tc.hops[h].cpu_demand;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(MuBench, ExactServiceCountsAtPaperScales) {
  for (std::int32_t services : {62, 118, 196}) {
    MubenchParams shape;
    shape.services = services;
    shape.groups = 3;
    shape.paths_per_group = 3;
    const auto app = BuildApplication(GenerateMubench(1, shape).topology);
    EXPECT_EQ(app.service_count(), static_cast<std::size_t>(services));
    EXPECT_EQ(app.PublicDynamicTypes().size(),
              3u * 3u + 1u /*upstream*/ + 2u /*singletons*/);
  }
}

TEST(MuBench, RejectsImpossibleShapes) {
  MubenchParams tiny;
  tiny.services = 10;
  tiny.groups = 3;
  tiny.paths_per_group = 3;
  EXPECT_THROW(GenerateMubench(1, tiny), std::invalid_argument);
  MubenchParams bad;
  bad.paths_per_group = 1;
  EXPECT_THROW(GenerateMubench(1, bad), std::invalid_argument);
}

TEST(MuBench, MixCoversDynamicTypesAndDownWeightsAdmin) {
  // Admin endpoints are heavyweight on their group frontend, so the
  // generated mix sends them a quarter of a regular API's traffic.
  const auto spec = GenerateMubench(1);
  const auto app = BuildApplication(spec.topology);
  const auto mix = BuildRequestMix(app, spec.workload);
  EXPECT_NO_THROW(mix.Validate());
  ASSERT_EQ(mix.types, app.PublicDynamicTypes());
  std::size_t admins = 0;
  for (std::size_t i = 0; i < mix.types.size(); ++i) {
    const std::string& name = app.request_type(mix.types[i]).name;
    const bool admin = name.ends_with("-admin");
    admins += admin;
    EXPECT_DOUBLE_EQ(mix.weights[i], admin ? 0.25 : 1.0) << name;
  }
  EXPECT_EQ(admins, 1u);  // one upstream path by default
}

}  // namespace
}  // namespace grunt::scenario
