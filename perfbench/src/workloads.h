#pragma once

// The benchmark's three workloads. Each Run* function performs one *pass*:
// one Grunt campaign, one defended-overload run, or one profiler sweep. A
// pass sets up every simulation it needs from scratch, times the setup, the
// simulated-second slices and the whole pass from outside, checks the
// simulated outcome, and returns everything as a PassResult. main.cpp repeats
// passes for the run's wall-clock budget and reduces them to the metrics.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/time_types.h"

namespace grunt::dist {
class CampaignExecutor;
}

namespace grunt::perfbench {

struct Options {
  std::uint64_t seed = 0;
  /// Host-side driving granularity. Results must not depend on it (the
  /// self-test runs 1 s and 250 ms); slice_ms is normalized to ms per
  /// simulated second.
  SimDuration slice = Sec(1);
  /// Smaller variant for the self-test: a shorter overload profile and a
  /// one-cell sweep. The campaign is always the full Table I campaign.
  bool reduced = false;
  /// Checkout root; spec files are read from <root>/specs.
  std::string root = ".";
  /// profile_sweep executor (thread backend); null for the other two.
  dist::CampaignExecutor* executor = nullptr;
  unsigned workers = 1;
};

/// Everything one pass measured. Counters are exact program counters (sums
/// over the pass's simulations). Timings are host time at the reference's
/// nominal speed (host_speed.h), without the reference samples themselves.
struct PassResult {
  /// Hex FNV-1a of the pass's simulated result; must repeat for one seed.
  std::string digest;
  int checks = 0;
  std::vector<std::string> failures;  ///< one line per failed check

  double wall_s = 0;   ///< whole pass, setup included
  double timed_s = 0;  ///< host seconds of the simulated phase (req/s base)
  std::uint64_t completed = 0;      ///< requests that reached an outcome
  std::vector<double> slice_ms;     ///< host ms per simulated second
  std::vector<double> setup_s;      ///< one per simulation
  std::vector<double> job_s;        ///< one per simulation, setup included
  std::map<std::string, double> setup_ms;  ///< setup.app_ms, ... (sums)
  std::map<std::string, double> counters;  ///< per-layer program counters
  std::map<std::string, double> reference;  ///< simulated results, printed
  std::vector<double> ref_ms;  ///< host-speed reference samples
  double host_factor = 1;      ///< nominal over measured host speed
};

PassResult RunCampaignSocial(const Options& opt);
PassResult RunDefendedOverload(const Options& opt);
PassResult RunProfileSweep(const Options& opt);

/// Registers the profile_sweep job kind with dist::JobRegistry::Global().
void RegisterSweepJob();

/// Digest of a default-seed pass, pinned so a perf change that moves any
/// simulated result fails the run. Empty when `seed` is not the default.
std::string PinnedDigest(const std::string& workload, std::uint64_t seed,
                         bool reduced);

/// The full Table I campaign result (the bench/campaign_jobs.h codec) of
/// the campaign_social pass at `seed`, for the self-test's cross-check
/// against the socialnetwork_campaign job.
std::string CampaignResultJson(const Options& opt);

}  // namespace grunt::perfbench
