#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace grunt {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Reset() { *this = RunningStats{}; }

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  return count_ == 0 ? std::numeric_limits<double>::infinity() : min_;
}

double RunningStats::max() const {
  return count_ == 0 ? -std::numeric_limits<double>::infinity() : max_;
}

void Samples::Add(double x) {
  values_.push_back(x);
  sorted_valid_ = false;
}

void Samples::Clear() {
  values_.clear();
  sorted_.clear();
  sorted_valid_ = false;
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double s = 0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double Samples::min() const {
  if (values_.empty()) return 0.0;
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  if (values_.empty()) return 0.0;
  return *std::max_element(values_.begin(), values_.end());
}

void Samples::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  EnsureSorted();
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: ceil(p/100 * N), 1-indexed.
  const auto n = static_cast<double>(sorted_.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank == 0) rank = 1;
  return sorted_[rank - 1];
}

}  // namespace grunt
