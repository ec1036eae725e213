#pragma once

// Campaign fan-out (DESIGN §9).
//
// A campaign — the Table-1 damage sweep, a Fig-11 pairwise grid — is a
// batch of independent simulations. CampaignExecutor runs a batch of
// registered jobs (job_registry.h) on util::ParallelRunner's in-process
// thread pool: jobs are claimed in index order, outcomes are merged in
// job-index order, and each job is pure data (kind, JSON args, seed), so
// campaign output is bit-identical at any worker count.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/parallel_runner.h"

namespace grunt::dist {

/// The in-process thread pool is the only backend.
enum class Backend : std::uint8_t { kThread };

struct ExecutorConfig {
  Backend backend = Backend::kThread;
  /// 0 resolves to ParallelRunner::DefaultThreads() (GRUNT_BENCH_THREADS).
  unsigned workers = 0;
};

/// One job: the registered kind's JSON arguments plus its seed (per-job RNG
/// plumbing — a kind must derive all randomness from it).
struct JobSpec {
  json::Value args;
  std::uint64_t seed = 0;
};

/// Per-job terminal state, in job-index order.
struct JobOutcome {
  bool ok = false;
  json::Value result;  ///< kind's return value when ok
  std::string error;   ///< diagnosis when !ok
};

/// Cumulative counters for the pool, reported as a single worker 0.
struct WorkerStats {
  unsigned worker = 0;
  std::uint64_t jobs = 0;
  std::uint64_t steals = 0;    ///< always 0: the pool has no static shards
  std::uint64_t failures = 0;  ///< error outcomes
  double busy_ms = 0;          ///< summed per-job wall time
};

/// What Run() throws for the lowest-indexed failed job: the message carries
/// the job index, kind, and the underlying error, so a failed campaign cell
/// is diagnosable without re-running the sweep.
class CampaignError : public std::runtime_error {
 public:
  CampaignError(const std::string& what, std::size_t job_index,
                std::string kind)
      : std::runtime_error(what),
        job_index_(job_index),
        kind_(std::move(kind)) {}

  std::size_t job_index() const { return job_index_; }
  const std::string& kind() const { return kind_; }

 private:
  std::size_t job_index_;
  std::string kind_;
};

class CampaignExecutor {
 public:
  explicit CampaignExecutor(ExecutorConfig cfg = {});

  unsigned workers() const { return pool_.threads(); }

  /// Runs registry[kind](jobs[i].args, jobs[i].seed) for every i and
  /// returns the outcomes in job-index order. A job that throws fails only
  /// its own JobOutcome; the rest of the batch still runs.
  std::vector<JobOutcome> RunAll(const std::string& kind,
                                 const std::vector<JobSpec>& jobs);

  /// RunAll, then throws CampaignError for the lowest-indexed failed job
  /// (mirroring ParallelRunner's lowest-index rethrow); on success returns
  /// just the results, in job-index order.
  std::vector<json::Value> Run(const std::string& kind,
                               const std::vector<JobSpec>& jobs);

  /// Cumulative counters across every Run() so far (empty before the
  /// first).
  const std::vector<WorkerStats>& worker_stats() const { return stats_; }

  /// Cumulative stats as one JSON object (the per-worker metrics artifact
  /// benches write when GRUNT_CAMPAIGN_METRICS_JSON is set).
  json::Value StatsJson() const;

 private:
  util::ParallelRunner pool_;
  std::vector<WorkerStats> stats_;
};

}  // namespace grunt::dist
