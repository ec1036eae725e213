#include "baseline/tail_attack.h"

#include <gtest/gtest.h>

#include "attack/sim_target_client.h"
#include "cloud/ids.h"
#include "cloud/monitor.h"
#include "fixtures.h"
#include "microsvc/cluster.h"
#include "workload/workload.h"

namespace grunt::baseline {
namespace {

struct Rig {
  explicit Rig(microsvc::Application application, double total_rate)
      : app(std::move(application)), cluster(sim, app, 21), log(cluster),
        client(cluster), rt(cluster, {Sec(1), "rt"}), bots({}) {
    workload::OpenLoopSource::Config wl;
    wl.rate = total_rate;
    wl.mix = workload::RequestMix::Uniform(app.PublicDynamicTypes());
    source = std::make_unique<workload::OpenLoopSource>(cluster, wl, 21);
    source->Start();
    rt.Start();
    sim.RunUntil(Sec(10));
  }

  sim::Simulation sim;
  microsvc::Application app;
  microsvc::Cluster cluster;
  grunt::testing::CompletionLog log;
  attack::SimTargetClient client;
  cloud::ResponseTimeMonitor rt;
  attack::BotFarm bots;
  std::unique_ptr<workload::OpenLoopSource> source;
};

TEST(TailAttack, DamagesTheAttackedPathOnly) {
  // On a microservice target with independent paths, the single-path Tail
  // attack hurts its own path but leaves the other path intact — the
  // paper's core argument for why Grunt is needed (Sec VII).
  Rig rig(grunt::testing::DisjointApp(
              microsvc::ServiceTimeDist::kExponential),
          80.0);
  TailAttack::Config cfg;
  cfg.url = 0;
  cfg.rate = 1000;
  cfg.count = 80;
  cfg.interval = Ms(400);
  TailAttack tail(rig.client, rig.bots, cfg);
  bool done = false;
  tail.Run(rig.sim.Now() + Sec(30), [&] { done = true; });
  while (!done && rig.sim.Now() < Sec(300)) {
    rig.sim.RunUntil(rig.sim.Now() + Sec(5));
  }
  ASSERT_TRUE(done);
  EXPECT_GT(tail.bursts().size(), 10u);
  EXPECT_GT(tail.attack_requests(), 500u);

  // Per-type damage from the completion log.
  Samples rt_x, rt_y;
  for (const auto& rec : rig.log.records()) {
    if (rec.cls != microsvc::RequestClass::kLegit) continue;
    if (rec.start < Sec(12)) continue;
    (rec.type == 0 ? rt_x : rt_y).Add(ToMillis(rec.end - rec.start));
  }
  ASSERT_GT(rt_x.count(), 50u);
  ASSERT_GT(rt_y.count(), 50u);
  EXPECT_GT(rt_x.mean(), 3.0 * rt_y.mean());
  EXPECT_LT(rt_y.mean(), 40.0);  // untouched path stays near baseline
}

TEST(TailAttack, RejectsBadConfig) {
  Rig rig(grunt::testing::DisjointApp(), 10.0);
  TailAttack::Config bad;
  bad.rate = 0;
  EXPECT_THROW(TailAttack(rig.client, rig.bots, bad), std::invalid_argument);
}

TEST(FloodAttack, SaturatesButTripsRateBasedIds) {
  Rig rig(grunt::testing::DisjointApp(
              microsvc::ServiceTimeDist::kExponential),
          80.0);
  cloud::Ids ids(rig.cluster, nullptr, nullptr, {});
  ids.Start();
  // A flood reuses a small bot pool at high rate: the per-IP rules fire.
  attack::BotFarm small_farm({Ms(100), 500'000});
  FloodAttack::Config cfg;
  cfg.urls = {0, 1};
  cfg.rate = 2000;
  FloodAttack flood(rig.client, small_farm, cfg);
  bool done = false;
  flood.Run(rig.sim.Now() + Sec(10), [&] { done = true; });
  while (!done && rig.sim.Now() < Sec(200)) {
    rig.sim.RunUntil(rig.sim.Now() + Sec(5));
  }
  ASSERT_TRUE(done);
  EXPECT_GT(flood.attack_requests(), 10'000u);
  EXPECT_GT(ids.CountAlerts(cloud::AlertRule::kInterRequestInterval), 0u);
  EXPECT_GT(ids.attributed_attack_alerts(), 0u);
}

TEST(FloodAttack, RejectsBadConfig) {
  Rig rig(grunt::testing::DisjointApp(), 10.0);
  EXPECT_THROW(FloodAttack(rig.client, rig.bots, {{}, 100.0}),
               std::invalid_argument);
  EXPECT_THROW(FloodAttack(rig.client, rig.bots, {{0}, 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace grunt::baseline
