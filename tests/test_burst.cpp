#include "attack/burst.h"

#include <gtest/gtest.h>

#include "attack/sim_target_client.h"
#include "fixtures.h"
#include "microsvc/cluster.h"

namespace grunt::attack {
namespace {

struct Rig {
  sim::Simulation sim;
  microsvc::Application app = grunt::testing::SingleChainApp();
  microsvc::Cluster cluster{sim, app, 1};
  SimTargetClient client{cluster};
  BotFarm bots{BotFarm::Config{}};
};

TEST(BurstObservation, EstimatorsOnSyntheticData) {
  BurstObservation obs;
  obs.rate = 100;
  obs.length_s = 0.1;
  obs.responses = {{Ms(0), Ms(50)}, {Ms(10), Ms(90)}, {Ms(20), Ms(70)}};
  EXPECT_DOUBLE_EQ(obs.EstimatePmbMs(), 40.0);  // last end 90 - first end 50
  EXPECT_DOUBLE_EQ(obs.MeanRtMs(), (50 + 80 + 50) / 3.0);
  EXPECT_DOUBLE_EQ(obs.MedianRtMs(), 50.0);
  EXPECT_DOUBLE_EQ(obs.MaxRtMs(), 80.0);
  EXPECT_EQ(obs.LastCompletion(), Ms(90));
  EXPECT_DOUBLE_EQ(obs.volume(), 10.0);

  BurstObservation empty;
  EXPECT_DOUBLE_EQ(empty.EstimatePmbMs(), 0.0);
  EXPECT_DOUBLE_EQ(empty.MeanRtMs(), 0.0);
  EXPECT_DOUBLE_EQ(empty.MedianRtMs(), 0.0);
}

TEST(BurstSender, SendsAtRequestedSpacingAndCollectsAll) {
  Rig rig;
  BurstObservation got;
  bool done = false;
  BurstSender::Send(rig.client, rig.bots, 0, /*heavy=*/false, /*rate=*/100,
                    /*count=*/10, /*attack_traffic=*/true,
                    [&](BurstObservation obs) {
                      got = std::move(obs);
                      done = true;
                    });
  rig.sim.RunAll();
  ASSERT_TRUE(done);
  ASSERT_EQ(got.responses.size(), 10u);
  // 100/s spacing = 10 ms between sends.
  for (std::size_t i = 1; i < got.responses.size(); ++i) {
    EXPECT_EQ(got.responses[i].sent - got.responses[i - 1].sent, Ms(10));
  }
  // One request per bot within a burst.
  EXPECT_EQ(rig.bots.bot_count(), 10u);
  EXPECT_DOUBLE_EQ(got.rate, 100);
  EXPECT_DOUBLE_EQ(got.length_s, 0.1);
}

TEST(BurstSender, RejectsBadShape) {
  Rig rig;
  EXPECT_THROW(BurstSender::Send(rig.client, rig.bots, 0, false, 0, 5, false,
                                 nullptr),
               std::invalid_argument);
  EXPECT_THROW(BurstSender::Send(rig.client, rig.bots, 0, false, 100, 0,
                                 false, nullptr),
               std::invalid_argument);
}

TEST(BurstSender, PmbEstimateReflectsQueueDrain) {
  // An uncongested chain completes requests at send spacing: the burst's
  // P_MB estimate stays near count * spacing. A saturating burst spreads
  // completions by the drain time instead.
  Rig rig;
  double relaxed_pmb = 0, saturated_pmb = 0;
  BurstSender::Send(rig.client, rig.bots, 0, false, 20, 5, false,
                    [&](BurstObservation obs) {
                      relaxed_pmb = obs.EstimatePmbMs();
                    });
  rig.sim.RunAll();
  BurstSender::Send(rig.client, rig.bots, 0, /*heavy=*/true, 2000, 60, false,
                    [&](BurstObservation obs) {
                      saturated_pmb = obs.EstimatePmbMs();
                    });
  rig.sim.RunAll();
  EXPECT_NEAR(relaxed_pmb, 200.0, 20.0);  // 4 gaps x 50 ms
  // 60 heavy requests = 60 * 10 ms on s1 (2 cores) ~ 300+ ms drain.
  EXPECT_GT(saturated_pmb, 250.0);
}

TEST(ProbeSender, ProbesAreLightAndSpaced) {
  Rig rig;
  BurstObservation got;
  ProbeSender::Send(rig.client, rig.bots, 0, 5, Ms(200),
                    [&](BurstObservation obs) { got = std::move(obs); });
  rig.sim.RunAll();
  ASSERT_EQ(got.responses.size(), 5u);
  // Probes on an idle system all see the deterministic baseline RT.
  for (const auto& r : got.responses) {
    EXPECT_EQ(r.completed - r.sent, Ms(9) + Us(1200));
  }
  EXPECT_THROW(ProbeSender::Send(rig.client, rig.bots, 0, 5, 0, nullptr),
               std::invalid_argument);
}

TEST(SettleUntilQuiet, ReturnsQuicklyOnQuietSystem) {
  Rig rig;
  bool done = false;
  SimTime done_at = 0;
  SettleUntilQuiet(rig.client, rig.bots, {0}, {10.2}, Ms(500), 10, 2.0,
                   [&] {
                     done = true;
                     done_at = rig.sim.Now();
                   });
  rig.sim.RunAll();
  EXPECT_TRUE(done);
  EXPECT_LT(done_at, Ms(600));  // one retry period + one probe RT
}

TEST(SettleUntilQuiet, WaitsOutCongestion) {
  Rig rig;
  // Pile ~1.5 s of work on s1 first.
  const auto s1 = *rig.app.FindService("s1");
  for (int i = 0; i < 300; ++i) {
    rig.cluster.service(s1).RunCpu(Ms(10), [] {});
  }
  bool done = false;
  SimTime done_at = 0;
  SettleUntilQuiet(rig.client, rig.bots, {0}, {10.2}, Ms(200), 50, 2.0,
                   [&] {
                     done = true;
                     done_at = rig.sim.Now();
                   });
  rig.sim.RunAll();
  EXPECT_TRUE(done);
  EXPECT_GT(done_at, Ms(1200));  // had to wait for the backlog to drain
}

TEST(SettleUntilQuiet, GivesUpAfterMaxTries) {
  Rig rig;
  // Saturate s1 far beyond the patience budget.
  const auto s1 = *rig.app.FindService("s1");
  rig.cluster.service(s1).RunCpu(Sec(60), [] {});
  rig.cluster.service(s1).RunCpu(Sec(60), [] {});
  bool done = false;
  SettleUntilQuiet(rig.client, rig.bots, {0}, {10.2}, Ms(100), 3, 2.0,
                   [&] { done = true; });
  rig.sim.RunUntil(Sec(70));
  EXPECT_TRUE(done);  // bounded: gave up rather than waiting forever
  EXPECT_THROW(SettleUntilQuiet(rig.client, rig.bots, {0, 1}, {10.0}, Ms(100),
                                3, 2.0, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace grunt::attack
