#include "cloud/defense.h"

#include <gtest/gtest.h>

#include "attack/grunt_attack.h"
#include "attack/sim_target_client.h"
#include "fixtures.h"
#include "microsvc/cluster.h"
#include "trace/dependency.h"
#include "workload/workload.h"

namespace grunt::cloud {
namespace {

TEST(CorrelationDefense, PoissonTrafficProducesNoVolleys) {
  sim::Simulation sim;
  const auto app = grunt::testing::DisjointApp(
      microsvc::ServiceTimeDist::kExponential);
  microsvc::Cluster cluster(sim, app, 2);
  CorrelationDefense defense(cluster, nullptr);
  defense.Start();
  workload::OpenLoopSource::Config wl;
  wl.rate = 100;  // 10 per type-bucket on average — far below threshold 20
  wl.mix = workload::RequestMix::Uniform({0, 1});
  workload::OpenLoopSource src(cluster, wl, 2);
  src.Start();
  sim.RunUntil(Sec(60));
  EXPECT_EQ(defense.Volleys(0, Sec(60)).volleys, 0u);
  EXPECT_TRUE(defense.FlaggedSessions(0, Sec(60)).empty());
}

TEST(CorrelationDefense, SynchronizedVolleyIsDetectedAndConfirmed) {
  sim::Simulation sim;
  const auto app = grunt::testing::DisjointApp();
  microsvc::Cluster cluster(sim, app, 3);
  ResourceMonitor fine(cluster, {Ms(100), "fine"});
  fine.Start();
  CorrelationDefense defense(cluster, &fine);
  defense.Start();
  // 30 synchronized heavy requests of type 0 at t=1s (distinct bots).
  sim.At(Sec(1), [&] {
    for (int i = 0; i < 30; ++i) {
      cluster.Submit(0, microsvc::RequestClass::kAttack, true,
                     9000 + static_cast<std::uint64_t>(i));
    }
  });
  sim.RunUntil(Sec(5));
  const auto stats = defense.Volleys(0, Sec(5));
  EXPECT_EQ(stats.volleys, 1u);
  EXPECT_EQ(stats.confirmed, 1u);  // the volley saturates worker-x
}

TEST(CorrelationDefense, FlagsBurstBotsNotUsers) {
  sim::Simulation sim;
  const auto app = grunt::testing::TwoPathParallelApp(
      microsvc::ServiceTimeDist::kExponential);
  microsvc::Cluster cluster(sim, app, 4);
  ResourceMonitor fine(cluster, {Ms(100), "fine"});
  fine.Start();
  CorrelationDefense defense(cluster, &fine);
  defense.Start();

  // Background users (Poisson, session ids 2'000'000+).
  workload::OpenLoopSource::Config wl;
  wl.rate = 120;
  wl.mix = workload::RequestMix::Uniform({0, 1});
  workload::OpenLoopSource users(cluster, wl, 4);
  users.Start();

  // Attacker volleys every 800 ms, 25 bots each from a reused pool of 60
  // (the real farm reuses bots once their IDS spacing elapses).
  std::uint64_t next_bot = 0;
  for (SimTime t = Sec(5); t < Sec(25); t += Ms(800)) {
    sim.At(t, [&cluster, &next_bot] {
      for (int i = 0; i < 25; ++i) {
        cluster.Submit(0, microsvc::RequestClass::kAttack, true,
                       9'000'000 + (next_bot++ % 60));
      }
    });
  }
  sim.RunUntil(Sec(30));

  std::size_t flagged_bots = 0, flagged_users = 0;
  for (const auto& v : defense.FlaggedSessions(0, Sec(30))) {
    (v.client_id >= 9'000'000 ? flagged_bots : flagged_users) += 1;
  }
  EXPECT_GT(flagged_bots, 50u);   // most of the 60-bot pool
  EXPECT_EQ(flagged_users, 0u);   // no legitimate session flagged
  const auto stats = defense.Volleys(0, Sec(30));
  EXPECT_GE(stats.volleys, 20u);
  EXPECT_EQ(stats.confirmed, stats.volleys);
}

TEST(CorrelationDefense, AnalyzeSortsByParticipation) {
  sim::Simulation sim;
  const auto app = grunt::testing::DisjointApp();
  microsvc::Cluster cluster(sim, app, 5);
  CorrelationDefense defense(cluster, nullptr);
  defense.Start();
  // Client 1: three requests, all inside the volley. Client 2: mixed
  // (1 volley + 3 spread out). One-shot filler bots pad the volley.
  sim.At(Sec(1), [&] {
    for (int i = 0; i < 24; ++i) {
      cluster.Submit(0, microsvc::RequestClass::kAttack, true,
                     500 + static_cast<std::uint64_t>(i));
    }
    for (int i = 0; i < 3; ++i) {
      cluster.Submit(0, microsvc::RequestClass::kAttack, true, 1);
    }
    cluster.Submit(0, microsvc::RequestClass::kAttack, true, 2);
  });
  for (int k = 0; k < 3; ++k) {
    sim.At(Sec(5 + 4 * k), [&] {
      cluster.Submit(1, microsvc::RequestClass::kLegit, false, 2);
    });
  }
  sim.RunUntil(Sec(20));
  const auto verdicts = defense.Analyze(0, Sec(20));
  // Only clients 1 and 2 have >= min_requests; one-shot fillers are not
  // judged (exactly the policy that keeps single-request sessions out).
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts.front().client_id, 1u);
  EXPECT_DOUBLE_EQ(verdicts.front().participation, 1.0);
  EXPECT_TRUE(verdicts.front().flagged);
  EXPECT_EQ(verdicts.back().client_id, 2u);
  EXPECT_EQ(verdicts.back().requests, 4u);
  EXPECT_EQ(verdicts.back().in_volley, 1u);
  EXPECT_FALSE(verdicts.back().flagged);
}

TEST(CorrelationDefense, StoppedDefenseRecordsNothing) {
  sim::Simulation sim;
  const auto app = grunt::testing::DisjointApp();
  microsvc::Cluster cluster(sim, app, 6);
  CorrelationDefense defense(cluster, nullptr);
  // never started
  sim.At(Sec(1), [&] {
    for (int i = 0; i < 30; ++i) {
      cluster.Submit(0, microsvc::RequestClass::kAttack, true, 7);
    }
  });
  sim.RunUntil(Sec(3));
  EXPECT_EQ(defense.Volleys(0, Sec(3)).volleys, 0u);
  EXPECT_TRUE(defense.Analyze(0, Sec(3)).empty());
}

TEST(CorrelationDefense, EndToEndAgainstRealGruntCampaign) {
  // The detector against the actual attack implementation (not a synthetic
  // volley): bots should dominate the flagged set.
  sim::Simulation sim;
  const auto app = grunt::testing::TwoPathParallelApp(
      microsvc::ServiceTimeDist::kExponential);
  microsvc::Cluster cluster(sim, app, 7);
  ResourceMonitor fine(cluster, {Ms(100), "fine"});
  fine.Start();
  CorrelationDefense defense(cluster, &fine);
  defense.Start();
  workload::OpenLoopSource::Config wl;
  wl.rate = 120;
  wl.mix = workload::RequestMix::Uniform({0, 1});
  workload::OpenLoopSource users(cluster, wl, 7);
  users.Start();
  sim.RunUntil(Sec(5));

  attack::SimTargetClient client(cluster);
  attack::ProfileResult profile;
  profile.urls = client.CrawlUrls();
  profile.candidates = {0, 1};
  profile.baseline_rt_ms = {15.0, 15.0};
  trace::PairwiseDep dep;
  dep.a = 0;
  dep.b = 1;
  dep.type = trace::DepType::kParallel;
  profile.pairs = {dep};
  profile.groups = {{0, 1}};
  attack::GruntAttack grunt(client, {});
  bool done = false;
  SimTime attack_start = 0;
  grunt.OnAttackPhaseStart([&](SimTime at) { attack_start = at; });
  grunt.RunWithProfile(profile, Sec(30),
                       [&](const attack::GruntReport&) { done = true; });
  while (!done && sim.Now() < Sec(1000)) sim.RunUntil(sim.Now() + Sec(5));
  ASSERT_TRUE(done);

  std::size_t flagged_bots = 0, flagged_users = 0;
  for (const auto& v :
       defense.FlaggedSessions(attack_start, attack_start + Sec(30))) {
    (v.client_id >= attack::BotFarm::kBotIdBase ? flagged_bots
                                                : flagged_users) += 1;
  }
  EXPECT_GT(flagged_bots, 20u);
  EXPECT_LT(flagged_users, 5u);
}

TEST(CorrelationDefense, DestroyedBeforeItsClusterUnsubscribes) {
  sim::Simulation sim;
  const auto app = grunt::testing::DisjointApp();
  microsvc::Cluster cluster(sim, app, 1);
  auto& bus = cluster.telemetry();
  const std::size_t submit_subs = bus.submit().subscriber_count();
  const std::size_t completion_subs = bus.completion().subscriber_count();
  {
    CorrelationDefense defense(cluster, nullptr);
    defense.Start();
    sim.At(Ms(100), [&] {
      cluster.Submit(0, microsvc::RequestClass::kAttack, false, 9000);
    });
    sim.RunUntil(Sec(1));
  }
  EXPECT_EQ(bus.submit().subscriber_count(), submit_subs);
  EXPECT_EQ(bus.completion().subscriber_count(), completion_subs);
  // Later submits and completions must not reach the destroyed defense.
  sim.At(Sec(2), [&] {
    cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
    cluster.Submit(1, microsvc::RequestClass::kAttack, false, 9001);
  });
  sim.RunUntil(Sec(5));
}

}  // namespace
}  // namespace grunt::cloud
