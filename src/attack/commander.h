#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "attack/botfarm.h"
#include "attack/burst.h"
#include "attack/kalman.h"
#include "attack/profiler.h"
#include "attack/target_client.h"
#include "model/queuing_model.h"
#include "util/timeseries.h"

namespace grunt::attack {

/// The Commander's two ablation switches (Sec V / DESIGN.md ablation
/// benches). Its goals and the rest of its tuning are fixed constants next
/// to the code that reads them (commander.cpp; the stealth cap is
/// kPmbLimitMs).
struct CommanderConfig {
  bool use_kalman = true;
  bool alternate_paths = true;  ///< false: hammer a single path (Tail-style)
};

/// One attack burst as fired and observed.
struct BurstRecord {
  SimTime at = 0;
  std::int32_t url = -1;
  double rate = 0;
  std::int32_t count = 0;
  double pmb_ms = 0;      ///< Monitor estimate for this burst
  double mean_rt_ms = 0;  ///< Monitor damage estimate for this burst
  double ok_fraction = 1.0;  ///< responses that were not errors
};

/// Per-path attack parameters discovered during initialisation.
struct PathPlan {
  std::int32_t url = -1;
  double baseline_ms = 0;
  double rate = 0;            ///< B_i
  std::int32_t count = 0;     ///< B_i * L_i in requests
  double measured_pmb_ms = 0; ///< P_MB at the calibrated volume
  model::BlockingKind kind = model::BlockingKind::kCrossTier;

  double length_s() const {
    return rate > 0 ? static_cast<double>(count) / rate : 0;
  }
  double volume() const { return static_cast<double>(count); }
};

/// Open-loop replay of a previously calibrated campaign: the per-path plans
/// plus the steady firing intervals observed in a reference run. Installed
/// with GroupCommander::SetReplay() before Initialize(); calibration is then
/// skipped entirely and the burst loop fires the fixed plans at the fixed
/// intervals with NO feedback adaptation of volume or cadence. This is how
/// the defense benches hold the attack constant while toggling the
/// deployment under it ("same campaign, defense toggled") — a re-optimizing
/// attacker is a different experiment.
struct GroupReplay {
  std::vector<PathPlan> plans;
  /// Aligned with `plans`; 0 (or missing) falls back to the default cadence.
  std::vector<SimDuration> intervals;
  std::int32_t paths_used = 0;  ///< m; 0 = all plans
};

/// Attack-time telemetry for one dependency group.
struct GroupStats {
  std::vector<PathPlan> plans;            ///< all calibrated paths, ranked
  std::int32_t paths_used = 0;            ///< m
  std::vector<BurstRecord> bursts;
  TimeSeries tmin_est_ms;                 ///< Kalman t_min after each probe
  TimeSeries burst_volume;                ///< requests per burst over time
  std::uint64_t attack_requests = 0;

  double MeanPmbMs() const;
  double MeanTminMs() const;
};

/// Drives the Grunt attack against ONE dependency group: calibrates each
/// member path (min B, max L), ranks candidates by blocking kind and volume
/// (Sec III-C), finds the minimum number of paths m that meets the damage
/// goal, then runs the alternating-burst loop with Kalman-filtered feedback
/// until told to stop.
class GroupCommander {
 public:
  /// `group` lists the member URL ids; `profile` supplies baselines and the
  /// pairwise evidence used for ranking.
  GroupCommander(TargetClient& target, BotFarm& bots, CommanderConfig cfg,
                 std::vector<std::int32_t> group, const ProfileResult& profile);

  /// Installs a pre-calibrated open-loop schedule; must be called before
  /// Initialize(). See GroupReplay.
  void SetReplay(GroupReplay replay) { replay_ = std::move(replay); }

  /// Phase 1+2: per-path calibration and m search; `done` fires when the
  /// group is ready to attack. With a replay installed, both phases are
  /// skipped and the group is ready immediately.
  void Initialize(std::function<void()> done);

  /// Phase 3: attack until `until` (target clock), then `done`.
  void Attack(SimTime until, std::function<void()> done);

  const GroupStats& stats() const { return stats_; }
  bool initialized() const { return initialized_; }

 private:
  struct PathRuntime {
    PathPlan plan;
    ScalarKalman pmb_kf;
    SimDuration interval;
    bool inflight = false;  ///< a burst on this path is awaiting responses
  };
  /// A path's runtime state before its first burst: `plan`, its P_MB
  /// estimator and firing interval.
  static PathRuntime NewPath(PathPlan plan, SimDuration interval);

  // Initialisation state machine.
  void CalibratePath(std::size_t idx, std::function<void()> done);
  void FindMinRate(std::size_t idx, double rate, std::function<void()> done);
  void FindMaxCount(std::size_t idx, std::int32_t count,
                    std::int32_t last_good, double last_good_pmb,
                    std::function<void()> done);
  void RankAndTrim();
  void TrialRun(std::int32_t m, std::function<void()> done);

  // Periodic burst engine (Sec III-B: the next burst fires one interval
  // after the previous burst STARTS, overlapping its drain so the blocking
  // effect never lapses).
  struct LoopCtx {
    std::int32_t m = 1;          ///< paths in rotation
    SimTime until = 0;
    bool trial = false;          ///< record into trial_rts_, send as probes
    std::function<void()> done;
    std::size_t idx = 0;         ///< rotation position
  };
  void FireInitialMixedBurst();
  void FireLoop(std::shared_ptr<LoopCtx> ctx);
  /// Monitor-module probe loop: runs alongside FireLoop for the same ctx.
  void ProbeLoop(std::shared_ptr<LoopCtx> ctx, std::size_t probe_idx);
  void OnBurstDone(std::size_t path_idx, const BurstObservation& obs,
                   bool trial);

  double BaselineOf(std::int32_t url) const;
  /// Probe-until-quiet cool-down on one path.
  void SettleQuiet(std::int32_t url, std::function<void()> done);

  TargetClient& target_;
  BotFarm& bots_;
  CommanderConfig cfg_;
  std::vector<std::int32_t> group_;
  const ProfileResult& profile_;
  std::vector<PathRuntime> paths_;  ///< ranked after calibration
  std::optional<GroupReplay> replay_;
  GroupStats stats_;
  bool initialized_ = false;
  bool attacking_ = false;
  mutable bool warned_fallback_baseline_ = false;
  SimTime attack_until_ = 0;
  std::function<void()> attack_done_;
  std::vector<double> trial_rts_;  ///< burst mean RTs of the current trial
  std::int32_t outstanding_bursts_ = 0;
  double last_tmin_est_ms_ = 0;
  /// Group-level damage estimator fed by the light probes.
  ScalarKalman group_tmin_kf_;
};

}  // namespace grunt::attack
