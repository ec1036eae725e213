#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace grunt::util {

/// Fans independent jobs across worker threads and hands results back in
/// job-index order, so output assembled from them is byte-identical at any
/// thread count. Jobs must not share mutable state; each bench campaign
/// builds its own Simulation/rig, which makes it a natural job.
class ParallelRunner {
 public:
  /// threads == 0 resolves to DefaultThreads().
  explicit ParallelRunner(unsigned threads = 0);

  unsigned threads() const { return threads_; }

  /// Runs job(0), ..., job(n-1), each exactly once, with up to threads()
  /// jobs in flight (the calling thread participates). Blocks until every
  /// job finished. If jobs throw, the remaining claimed jobs still run and
  /// the exception from the lowest-indexed failed job is rethrown — again
  /// independent of thread count.
  void ForEachIndex(std::size_t n,
                    const std::function<void(std::size_t)>& job);

  /// ForEachIndex that collects each job's return value, in index order.
  /// R must be default-constructible and movable.
  template <class R, class F>
  std::vector<R> Map(std::size_t n, F&& job) {
    std::vector<R> out(n);
    ForEachIndex(n, [&out, &job](std::size_t i) { out[i] = job(i); });
    return out;
  }

  /// GRUNT_BENCH_THREADS if set, else std::thread::hardware_concurrency(),
  /// else 1. A set-but-invalid GRUNT_BENCH_THREADS (garbage, negative,
  /// zero, overflow, > kMaxThreads) throws util::EnvError rather than
  /// silently falling back.
  static unsigned DefaultThreads();

  /// Upper bound accepted from GRUNT_BENCH_THREADS.
  static constexpr unsigned kMaxThreads = 4096;

 private:
  unsigned threads_;
};

}  // namespace grunt::util
