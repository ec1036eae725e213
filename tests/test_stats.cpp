#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace grunt {
namespace {

TEST(RunningStats, EmptyIsNeutral) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isinf(s.min()));
  EXPECT_TRUE(std::isinf(s.max()));
}

TEST(RunningStats, MatchesNaiveComputation) {
  RunningStats s;
  const std::vector<double> xs = {3.0, -1.5, 7.25, 0.0, 2.5, 2.5};
  double sum = 0;
  for (double x : xs) {
    s.Add(x);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);

  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -1.5);
  EXPECT_DOUBLE_EQ(s.max(), 7.25);
  EXPECT_NEAR(s.sum(), sum, 1e-12);
}

TEST(Samples, PercentileNearestRank) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.Percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);   // rank clamps to 1
  EXPECT_DOUBLE_EQ(s.Percentile(1), 1.0);
}

TEST(Samples, PercentileSmallPopulations) {
  Samples s;
  EXPECT_DOUBLE_EQ(s.Percentile(50), 0.0);  // empty
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 42.0);
  s.Add(7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(75), 42.0);
}

TEST(Samples, StatsAndInterleavedAdds) {
  Samples s;
  s.Add(5);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 5);
  s.Add(1);  // invalidates cached sort
  EXPECT_DOUBLE_EQ(s.Percentile(50), 1);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  s.Clear();
  EXPECT_TRUE(s.empty());
}

}  // namespace
}  // namespace grunt
