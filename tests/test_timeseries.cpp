#include "util/timeseries.h"

#include <gtest/gtest.h>

namespace grunt {
namespace {

TimeSeries Ramp() {
  TimeSeries ts;
  for (int i = 0; i < 10; ++i) {
    ts.Add(Sec(i), static_cast<double>(i));
  }
  return ts;
}

TEST(TimeSeries, RejectsTimeGoingBackwards) {
  TimeSeries ts;
  ts.Add(Sec(2), 1.0);
  ts.Add(Sec(2), 2.0);  // equal time is fine
  EXPECT_THROW(ts.Add(Sec(1), 3.0), std::invalid_argument);
}

TEST(TimeSeries, WindowStatsHalfOpenInterval) {
  const TimeSeries ts = Ramp();
  const RunningStats s = ts.WindowStats(Sec(2), Sec(5));
  EXPECT_EQ(s.count(), 3u);  // t = 2, 3, 4
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(ts.WindowMax(Sec(2), Sec(5)), 4.0);
  EXPECT_DOUBLE_EQ(ts.WindowMean(Sec(2), Sec(5)), 3.0);
}

TEST(TimeSeries, WindowOutsideDataIsEmpty) {
  const TimeSeries ts = Ramp();
  EXPECT_EQ(ts.WindowStats(Sec(100), Sec(200)).count(), 0u);
  EXPECT_DOUBLE_EQ(ts.WindowMax(Sec(100), Sec(200)), 0.0);
}

TEST(TimeSeries, LongestRunAboveThreshold) {
  TimeSeries ts;
  // 1s-spaced samples: below, above x3, below, above x2.
  const double vals[] = {0, 1, 1, 1, 0, 1, 1};
  for (int i = 0; i < 7; ++i) ts.Add(Sec(i), vals[i]);
  // Runs measured between first and last qualifying sample times.
  EXPECT_EQ(ts.LongestRunAbove(0.5, 0, Sec(10)), Sec(2));  // t=1..3
  EXPECT_EQ(ts.LongestRunAbove(2.0, 0, Sec(10)), 0);
}

}  // namespace
}  // namespace grunt
