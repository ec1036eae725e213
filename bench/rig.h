#pragma once

// The benches' experiment matrix on top of scenario::ScenarioRig
// (scenario/deployment.h): the paper's six cloud settings, the standard
// campaign (clean baseline window, attack campaign, attack window) and its
// windowed result, the one-scenario printout `--scenario` switches the
// table benches to, and the bench banner.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "attack/grunt_attack.h"
#include "scenario/deployment.h"
#include "util/stats.h"
#include "util/table.h"

namespace grunt::bench {

/// One deployment setting of Table I / Table III ("EC2-7K" = cloud platform
/// + number of concurrent legitimate users).
struct CloudSetting {
  std::string name;
  std::int32_t users = 7000;
  double capacity_scale = 1.0;   ///< relative vCPU speed of the provider
  std::int32_t replica_scale = 1;  ///< bigger deployments for bigger loads
};

/// The six settings evaluated in the paper (Sec V-B).
std::vector<CloudSetting> PaperSettings();

/// The SocialNetwork scenario deployed at one paper setting: the setting's
/// replica/capacity scale and user population, named after the setting (so
/// GRUNT_METRICS_JSON artifacts read metrics.EC2-7K.json, ...).
scenario::ScenarioSpec SocialNetworkSpec(const CloudSetting& setting);

/// Windowed measurements around one attack campaign.
struct CampaignResult {
  Samples base_rt_ms;
  Samples att_rt_ms;
  double base_mbps = 0;
  double att_mbps = 0;
  double base_cpu_pct = 0;  ///< representative bottleneck service
  double att_cpu_pct = 0;
  /// Legitimate goodput (ok completions/s) in the two windows; the defense
  /// bench's collateral-damage axis. Filled by RunScenarioCampaign.
  double base_goodput = 0;
  double att_goodput = 0;
  /// Mean legit failure fraction (timeout/reject/deadline) per window.
  double base_error_rate = 0;
  double att_error_rate = 0;
  /// Graceful-degradation activity over the whole run (0 when undeployed).
  std::int64_t bulkhead_rejections = 0;
  std::int64_t limiter_rejections = 0;
  std::int64_t deadline_sheds = 0;
  /// Cumulative legit completions by terminal outcome (whole run).
  std::array<std::uint64_t, microsvc::kOutcomeCount> legit_outcomes{};
  std::string bottleneck_service;
  std::size_t bots = 0;
  double mean_pmb_ms = 0;
  std::size_t scale_actions_during_attack = 0;
  std::size_t attributed_alerts = 0;
  SimTime attack_start = 0;
  SimTime attack_end = 0;
  attack::GruntReport report;
};

/// Full Grunt campaign against a scenario: baseline window on
/// [20s, 50s), blackbox profiling (skipped when `profile` is non-null),
/// a burst phase of `attack_duration`, then the attack window. Throws
/// std::runtime_error naming the scenario when the campaign has not
/// finished by scenario::kRunCap.
CampaignResult RunScenarioCampaign(const scenario::ScenarioSpec& spec,
                                   SimDuration attack_duration,
                                   std::uint64_t seed,
                                   attack::GruntConfig cfg = {},
                                   const attack::ProfileResult* profile =
                                       nullptr);

/// The standard one-scenario campaign printout, used by the table benches
/// when `--scenario` overrides their built-in experiment matrix: baseline
/// vs attack RT/traffic/CPU plus the stealth columns. Returns an exit code.
int RunScenarioBench(const scenario::ScenarioSpec& spec,
                     std::uint64_t seed = 7);

/// Prints the standard bench banner with the paper reference.
void Banner(const std::string& experiment, const std::string& paper_claim);

}  // namespace grunt::bench
