#pragma once

#include <cstddef>
#include <vector>

#include "util/stats.h"
#include "util/time_types.h"

namespace grunt {

/// A (time, value) point emitted by a sampler or metric.
struct TimePoint {
  SimTime time;
  double value;
};

/// Append-only time series with windowed queries. Points must be appended in
/// non-decreasing time order (enforced).
class TimeSeries {
 public:
  void Add(SimTime t, double value);

  std::size_t size() const { return points_.size(); }
  bool empty() const { return points_.empty(); }
  const std::vector<TimePoint>& points() const { return points_; }
  const TimePoint& at(std::size_t i) const { return points_.at(i); }
  const TimePoint& back() const { return points_.back(); }

  /// Statistics over points with time in [from, to).
  RunningStats WindowStats(SimTime from, SimTime to) const;

  /// Max value over [from, to); 0 if no points in window.
  double WindowMax(SimTime from, SimTime to) const;

  /// Mean value over [from, to); 0 if no points in window.
  double WindowMean(SimTime from, SimTime to) const;

  /// Longest run (duration) of consecutive points with value >= threshold
  /// inside [from, to). The run length counts time between the first and the
  /// point after the last qualifying sample (i.e. sample spacing matters).
  SimDuration LongestRunAbove(double threshold, SimTime from, SimTime to) const;

 private:
  std::size_t LowerBound(SimTime t) const;

  std::vector<TimePoint> points_;
};

}  // namespace grunt
