#pragma once

#include <cstddef>
#include <vector>

namespace grunt {

/// Streaming mean/variance/min/max (Welford). O(1) memory.
class RunningStats {
 public:
  void Add(double x);
  void Reset();

  std::size_t count() const { return count_; }
  double mean() const;
  double variance() const;  ///< sample variance (n-1); 0 if count < 2
  double stddev() const;
  double min() const;  ///< +inf if empty
  double max() const;  ///< -inf if empty
  double sum() const { return mean() * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_;
  double max_;
};

/// Stores every sample; supports exact percentiles. Intended for
/// response-time populations in benches and tests (bounded experiment sizes).
class Samples {
 public:
  void Add(double x);
  void Clear();

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double mean() const;
  double min() const;
  double max() const;
  /// Exact percentile via nearest-rank on the sorted samples. p in [0,100].
  /// Returns 0 if empty.
  double Percentile(double p) const;
  const std::vector<double>& values() const { return values_; }

 private:
  void EnsureSorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace grunt
