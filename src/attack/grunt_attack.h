#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "attack/botfarm.h"
#include "attack/commander.h"
#include "attack/profiler.h"
#include "attack/target_client.h"

namespace grunt::attack {

/// End-to-end configuration of a Grunt attack campaign.
struct GruntConfig {
  CommanderConfig commander;
  BotFarm::Config botfarm;
  /// Attack the largest `max_groups` dependency groups (0 = all). Large
  /// systems let attackers hit only a subset of groups (Sec VI).
  std::size_t max_groups = 0;
  /// Open-loop replay: one entry per attacked group, index-matched to the
  /// commanders a previous campaign with the SAME profile and group config
  /// created (group targeting is deterministic given the profile). When
  /// non-empty, calibration is skipped and the fixed schedules are fired
  /// with no feedback adaptation. See GroupReplay.
  std::vector<GroupReplay> replay;
};

/// Final campaign report.
struct GruntReport {
  ProfileResult profile;
  std::vector<GroupStats> groups;
  std::size_t bots_used = 0;
  std::uint64_t attack_requests = 0;

  double MeanPmbMs() const;
  double MeanTminMs() const;
};

/// Top-level orchestrator: Profile -> Initialize every group commander ->
/// attack all targeted groups concurrently until the deadline -> report.
/// Everything flows through the blackbox TargetClient.
class GruntAttack {
 public:
  GruntAttack(TargetClient& target, GruntConfig cfg);

  /// Full campaign (profiling included). `attack_duration` is how long the
  /// burst phase runs once profiling and calibration have finished.
  void Run(SimDuration attack_duration,
           std::function<void(const GruntReport&)> done);

  /// Campaign with a pre-computed profile (reused across runs, or supplied
  /// by ground truth in white-box ablations).
  void RunWithProfile(ProfileResult profile, SimDuration attack_duration,
                      std::function<void(const GruntReport&)> done);

  /// Fires when calibration completes and the burst phase begins (benches
  /// use this to bracket their measurement window).
  void OnAttackPhaseStart(std::function<void(SimTime)> cb) {
    attack_start_cb_ = std::move(cb);
  }

  const BotFarm& bots() const { return bots_; }
  const GruntReport& report() const { return report_; }

 private:
  void InitializeGroups(std::size_t idx, SimDuration attack_duration,
                        std::function<void(const GruntReport&)> done);
  void LaunchAttacks(SimDuration attack_duration,
                     std::function<void(const GruntReport&)> done);

  TargetClient& target_;
  GruntConfig cfg_;
  BotFarm bots_;
  std::unique_ptr<Profiler> profiler_;
  std::vector<std::unique_ptr<GroupCommander>> commanders_;
  GruntReport report_;
  std::function<void(SimTime)> attack_start_cb_;
};

}  // namespace grunt::attack
