#include "attack/botfarm.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "util/rng.h"

namespace grunt::attack {
namespace {

TEST(BotFarm, RecruitsWhenAllBotsAreCooling) {
  BotFarm farm({Ms(3500)});
  const auto b1 = farm.Acquire(0);
  const auto b2 = farm.Acquire(Ms(10));
  EXPECT_NE(b1, b2);
  EXPECT_EQ(farm.bot_count(), 2u);
}

TEST(BotFarm, ReusesBotAfterSpacingElapses) {
  BotFarm farm({Ms(3500)});
  const auto b1 = farm.Acquire(0);
  const auto b2 = farm.Acquire(Ms(3500));
  EXPECT_EQ(b1, b2);
  EXPECT_EQ(farm.bot_count(), 1u);
}

TEST(BotFarm, BotIdsDerivedFromBase) {
  BotFarm farm({});
  EXPECT_EQ(farm.Acquire(0), BotFarm::kBotIdBase);
  EXPECT_EQ(farm.Acquire(0), BotFarm::kBotIdBase + 1);
}

/// Property: under any acquisition pattern, no bot is ever used twice
/// within the configured spacing — the invariant that defeats the IDS
/// inter-request rule.
class BotSpacingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BotSpacingProperty, SpacingNeverViolated) {
  BotFarm farm({Ms(3000)});
  RngStream rng(GetParam(), "botfarm");
  std::map<std::uint64_t, SimTime> last_use;
  SimTime now = 0;
  for (int i = 0; i < 5000; ++i) {
    now += rng.NextExpDuration(Ms(20));
    const std::uint64_t bot = farm.Acquire(now).value();
    auto it = last_use.find(bot);
    if (it != last_use.end()) {
      ASSERT_GE(now - it->second, Ms(3000))
          << "bot " << bot << " reused too soon at " << now;
    }
    last_use[bot] = now;
  }
  EXPECT_EQ(farm.requests_sent(), 5000u);
  // Roughly rate * spacing bots needed: 50/s * 3 s = 150.
  EXPECT_NEAR(static_cast<double>(farm.bot_count()), 150.0, 60.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BotSpacingProperty,
                         ::testing::Values(1, 7, 42));

TEST(BotFarm, RoundRobinSpreadsReuse) {
  BotFarm farm({Ms(100)});
  // Create 3 bots.
  const auto a = *farm.Acquire(0);
  const auto b = *farm.Acquire(0);
  const auto c = *farm.Acquire(0);
  // All eligible again: reuse should cycle, not hammer one bot.
  const auto r1 = *farm.Acquire(Ms(200));
  const auto r2 = *farm.Acquire(Ms(200));
  const auto r3 = *farm.Acquire(Ms(200));
  EXPECT_EQ((std::set<std::uint64_t>{r1, r2, r3}),
            (std::set<std::uint64_t>{a, b, c}));
}

TEST(BotFarm, BudgetCapStopsRecruitmentAndFailsAcquire) {
  BotFarm::Config cfg;
  cfg.min_spacing = Ms(1000);
  cfg.max_bots = 2;
  BotFarm farm(cfg);
  EXPECT_TRUE(farm.Acquire(0).has_value());
  EXPECT_TRUE(farm.Acquire(0).has_value());
  // Budget spent, both bots cooling: no request can be sent...
  EXPECT_FALSE(farm.Acquire(Ms(10)).has_value());
  EXPECT_EQ(farm.bot_count(), 2u);
  EXPECT_EQ(farm.requests_sent(), 2u);  // failed acquires are not sends
  // ...until the spacing elapses, when existing bots become usable again.
  EXPECT_TRUE(farm.Acquire(Ms(1000)).has_value());
  EXPECT_EQ(farm.bot_count(), 2u);
}

}  // namespace
}  // namespace grunt::attack
