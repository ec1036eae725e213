#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "attack/botfarm.h"
#include "attack/burst.h"
#include "attack/target_client.h"
#include "trace/dependency.h"

namespace grunt::attack {

/// Stealth goal of the whole attack (Sec IV): every created millibottleneck
/// stays at or under 500 ms. The Profiler's volume sweep stops at it, and the
/// Commander calibrates each path's burst volume to a margin under it.
inline constexpr double kPmbLimitMs = 500.0;

/// Empty: the profiling procedure's tuning is fixed (see profiler.cpp). Kept
/// only so that perfbench's `Profiler(target, bots, {})` still compiles.
struct ProfilerConfig {};

/// Raw evidence gathered for one unordered pair of URLs.
struct PairEvidence {
  std::int32_t a = -1;
  std::int32_t b = -1;
  std::vector<std::int32_t> volumes;   ///< volumes actually tested
  std::vector<bool> a_blocks_b;        ///< per volume
  std::vector<bool> b_blocks_a;        ///< per volume
  trace::DepType inferred = trace::DepType::kNone;
};

/// Everything the profiler learned, expressed over URL ids (== request type
/// ids in the simulated target). `groups` is what the Commander attacks.
struct ProfileResult {
  std::vector<PublicUrl> urls;              ///< full crawl
  std::vector<std::int32_t> candidates;     ///< dynamic URLs profiled
  std::vector<double> baseline_rt_ms;       ///< indexed by url_id (0 if n/a)
  std::vector<PairEvidence> evidence;
  std::vector<trace::PairwiseDep> pairs;    ///< inferred dependencies
  std::vector<std::vector<std::int32_t>> groups;  ///< dependency groups

  /// Inferred dependency type for an unordered pair (kNone when unprofiled).
  trace::DepType InferredType(std::int32_t a, std::int32_t b) const;
};

/// Blackbox Profiler module (Sec IV-C): crawls the URL catalog, measures
/// per-URL baselines, tests pairwise performance interference across a
/// volume sweep in both burst orders, classifies each pair as
/// none/parallel/sequential/mutual, and unions dependent pairs into
/// dependency groups. Runs entirely through the TargetClient interface.
class Profiler {
 public:
  Profiler(TargetClient& target, BotFarm& bots, ProfilerConfig = {});

  /// Starts profiling; `done` fires (as a target-clock event) with the
  /// finished result. One Run per Profiler instance.
  void Run(std::function<void(ProfileResult)> done);

 private:
  struct Direction {
    std::int32_t burst_url;
    std::int32_t victim_url;
  };

  void MeasureBaseline(std::size_t candidate_idx);
  /// Probes `urls` every kSettle until all are back near baseline, then
  /// calls `done`.
  void SettleQuiet(std::vector<std::int32_t> urls, std::function<void()> done);
  void StartPair(std::size_t pair_idx);
  void StartVolume(std::size_t pair_idx, std::size_t vol_idx);
  void RunDirection(std::size_t vol_idx, bool reversed,
                    std::function<void(bool interfered, double pmb_ms)> done);
  void RunDirectionOnce(
      std::size_t vol_idx, bool reversed,
      std::function<void(bool interfered, double pmb_ms)> done);
  void FinishPair(std::size_t pair_idx);
  void Finish();
  static bool Interfered(double victim_mean_ms, double baseline_ms);
  /// True once the evidence so far pins the pair's class down (sweep can
  /// stop early).
  bool PairDecided(const PairEvidence& ev) const;
  static trace::DepType ClassifyEvidence(const PairEvidence& ev);

  TargetClient& target_;
  BotFarm& bots_;
  ProfileResult result_;
  std::vector<std::pair<std::int32_t, std::int32_t>> pair_list_;
  std::function<void(ProfileResult)> done_;
  bool running_ = false;
};

}  // namespace grunt::attack
