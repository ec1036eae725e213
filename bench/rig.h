#pragma once

// Shared experiment rig for the benches, examples and tools: deploys a
// scenario with the full operator stack (workload, 1 s resource and RT
// monitors, autoscaler, IDS), measures a clean baseline window, runs an
// attack campaign, and measures the attack window. Every table/figure
// bench builds on this.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/grunt_attack.h"
#include "attack/sim_target_client.h"
#include "cloud/autoscaler.h"
#include "cloud/ids.h"
#include "cloud/monitor.h"
#include "microsvc/cluster.h"
#include "scenario/registry.h"
#include "sim/simulation.h"
#include "trace/dependency.h"
#include "util/stats.h"
#include "util/table.h"
#include "workload/workload.h"

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

/// Sampling period of the fine-grained monitor that fig13,
/// defense_correlation and the defense_monitoring example build next to
/// their rig. The rig itself deploys no fine monitor.
inline constexpr SimDuration kFineMonitorPeriod = Ms(100);

/// A fully wired deployment of an arbitrary scenario spec: application from
/// its topology section, closed- or open-loop workload from its workload
/// section, operator stack from its operators section — anything
/// `--scenario=<name|file>` can name, or SocialNetworkSpec(setting).
class ScenarioRig {
 public:
  ScenarioRig(const scenario::ScenarioSpec& spec, std::uint64_t seed);

  void RunUntil(SimTime until);

  sim::Simulation& sim() { return sim_; }
  const microsvc::Application& app() const { return app_; }
  microsvc::Cluster& cluster() { return *cluster_; }
  cloud::ResourceMonitor& cloudwatch() { return *cloudwatch_; }
  cloud::ResponseTimeMonitor& rt_monitor() { return *rt_; }
  /// Null when the scenario disables the operator.
  cloud::AutoScaler* autoscaler() { return scaler_.get(); }
  cloud::Ids* ids() { return ids_.get(); }
  /// Null when the scenario's workload is closed-loop.
  workload::OpenLoopSource* open_source() { return open_source_.get(); }
  attack::SimTargetClient& client() { return *client_; }

  /// Hottest non-gateway service in [from, to) (the tables' representative
  /// bottleneck). Gateways are recognized by their huge thread pools.
  microsvc::ServiceId HottestBackend(SimTime from, SimTime to) const;

 private:
  sim::Simulation sim_;
  microsvc::Application app_;
  std::unique_ptr<microsvc::Cluster> cluster_;
  std::unique_ptr<workload::ClosedLoopWorkload> closed_users_;
  std::unique_ptr<workload::OpenLoopSource> open_source_;
  std::unique_ptr<cloud::ResourceMonitor> cloudwatch_;
  std::unique_ptr<cloud::ResponseTimeMonitor> rt_;
  std::unique_ptr<cloud::AutoScaler> scaler_;
  std::unique_ptr<cloud::Ids> ids_;
  std::unique_ptr<attack::SimTargetClient> client_;
};

/// The simulated-time cap of every bench run: a campaign or profiler that
/// has not reported by then fails the bench instead of printing a
/// half-filled table.
inline constexpr SimTime kRunCap = Sec(7200);

/// Runs `sim` in `step` increments until `done` is set. Throws
/// std::runtime_error "<what> did not finish within the 7200 s simulated
/// cap" when it is still unset at kRunCap.
void RunUntilDone(sim::Simulation& sim, const bool& done, SimDuration step,
                  const std::string& what);

/// Launches `grunt` (the full blackbox campaign, or the burst phase from
/// `profile` when it is non-null) and runs `sim` in 10 s steps until it
/// reports, as RunUntilDone. Returns the burst phase's start; the result is
/// grunt.report(). The callbacks left on `grunt` hold no reference into
/// this call.
SimTime RunGrunt(sim::Simulation& sim, attack::GruntAttack& grunt,
                 SimDuration attack_duration,
                 const attack::ProfileResult* profile,
                 const std::string& what);

/// Full Grunt campaign against a scenario: baseline window on
/// [20s, 50s), blackbox profiling (skipped when `profile` is non-null),
/// a burst phase of `attack_duration`, then the attack window. Throws
/// std::runtime_error naming the scenario when the campaign has not
/// finished by kRunCap.
CampaignResult RunScenarioCampaign(const scenario::ScenarioSpec& spec,
                                   SimDuration attack_duration,
                                   std::uint64_t seed,
                                   attack::GruntConfig cfg = {},
                                   const attack::ProfileResult* profile =
                                       nullptr);

/// Per-type legit request rates implied by a scenario's workload section
/// (closed-loop: users/think_mean split by mix weight; open-loop: rate split
/// by mix weight). Ground-truth input for TruthProfile.
std::vector<double> ScenarioRates(const microsvc::Application& app,
                                  const scenario::WorkloadSpec& workload);

/// Scenario selection shared by the bench binaries.
struct ScenarioArgs {
  /// Set when --scenario=<name|file> was given and resolved.
  std::unique_ptr<scenario::ScenarioSpec> scenario;
  bool should_exit = false;  ///< --list-scenarios handled, or resolve error
  int exit_code = 0;
};

/// Parses `--scenario=<name|file>` / `--scenario <name|file>` and
/// `--list-scenarios` out of argv. On --list-scenarios prints the registry
/// catalogue; on a missing value or a resolve failure prints the error to
/// stderr and asks for exit code 2. Other arguments are ignored (benches
/// keep their own flags).
ScenarioArgs ParseScenarioArgs(int argc, char** argv);

/// The standard one-scenario campaign printout, used by the table benches
/// when `--scenario` overrides their built-in experiment matrix: baseline
/// vs attack RT/traffic/CPU plus the stealth columns. Returns an exit code.
int RunScenarioBench(const scenario::ScenarioSpec& spec,
                     std::uint64_t seed = 7);

/// Ground-truth profile for any app under per-type rates (white-box; used
/// by benches that study the attack itself rather than the profiler).
attack::ProfileResult TruthProfile(const microsvc::Application& app,
                                   const std::vector<double>& type_rates);

/// A profiler's pairwise verdicts scored against the ground truth: a pair
/// is positive when it is dependent, of any kind.
struct ProfileScore {
  int tp = 0, fp = 0, fn = 0, tn = 0;
  int kind_match = 0;  ///< true positives whose dependency kind also agrees

  double precision() const { return tp + fp ? 1.0 * tp / (tp + fp) : 1.0; }
  double recall() const { return tp + fn ? 1.0 * tp / (tp + fn) : 1.0; }
  double f1() const {
    const double p = precision(), r = recall();
    return p + r > 0 ? 2 * p * r / (p + r) : 0.0;
  }
};

/// Scores every pair `result` profiled against `truth`.
ProfileScore ScoreProfile(const attack::ProfileResult& result,
                          const trace::GroundTruth& truth);

/// Prints the standard bench banner with the paper reference.
void Banner(const std::string& experiment, const std::string& paper_claim);

}  // namespace grunt::bench
