#include "util/timeseries.h"

#include <algorithm>
#include <stdexcept>

namespace grunt {

void TimeSeries::Add(SimTime t, double value) {
  if (!points_.empty() && t < points_.back().time) {
    throw std::invalid_argument("TimeSeries::Add: time went backwards");
  }
  points_.push_back({t, value});
}

std::size_t TimeSeries::LowerBound(SimTime t) const {
  auto it = std::lower_bound(
      points_.begin(), points_.end(), t,
      [](const TimePoint& p, SimTime v) { return p.time < v; });
  return static_cast<std::size_t>(it - points_.begin());
}

RunningStats TimeSeries::WindowStats(SimTime from, SimTime to) const {
  RunningStats s;
  for (std::size_t i = LowerBound(from); i < points_.size(); ++i) {
    if (points_[i].time >= to) break;
    s.Add(points_[i].value);
  }
  return s;
}

double TimeSeries::WindowMax(SimTime from, SimTime to) const {
  const RunningStats s = WindowStats(from, to);
  return s.count() == 0 ? 0.0 : s.max();
}

double TimeSeries::WindowMean(SimTime from, SimTime to) const {
  return WindowStats(from, to).mean();
}

SimDuration TimeSeries::LongestRunAbove(double threshold, SimTime from,
                                        SimTime to) const {
  SimDuration best = 0;
  bool in_run = false;
  SimTime run_start = 0;
  SimTime last_time = 0;
  for (std::size_t i = LowerBound(from); i < points_.size(); ++i) {
    const TimePoint& p = points_[i];
    if (p.time >= to) break;
    if (p.value >= threshold) {
      if (!in_run) {
        in_run = true;
        run_start = p.time;
      }
      last_time = p.time;
      best = std::max(best, last_time - run_start);
    } else {
      in_run = false;
    }
  }
  return best;
}

}  // namespace grunt
