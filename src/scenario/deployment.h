#pragma once

// Deployment: a scenario spec turned into a running target under the full
// operator stack (workload, 1 s resource and RT monitors, autoscaler, IDS),
// plus what every program that attacks or profiles one needs next: the
// 7200 s simulated run cap and the loops that wait on it, the per-type
// rates a workload section implies, the ground-truth profile and the
// scorer of a profiler's verdicts.

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
#include "scenario/spec.h"
#include "sim/simulation.h"
#include "trace/dependency.h"
#include "workload/workload.h"

namespace grunt::scenario {

/// Sampling period of the rig's CloudWatch-style resource monitor and of
/// its response-time monitor: the 1 s granularity the paper's operators
/// watch at (Sec V-B), and the tick the autoscaler and the IDS evaluate on.
inline constexpr SimDuration kCoarseMonitorPeriod = Sec(1);

/// Sampling period of the fine-grained monitor that fig13,
/// defense_correlation and the defense_monitoring example build next to
/// their rig. The rig itself deploys no fine monitor.
inline constexpr SimDuration kFineMonitorPeriod = Ms(100);

/// A fully wired deployment of an arbitrary scenario spec: application from
/// its topology section, closed- or open-loop workload from its workload
/// section, operator stack from its operators section — anything
/// `--scenario=<name|file>` can name.
class ScenarioRig {
 public:
  ScenarioRig(const ScenarioSpec& spec, std::uint64_t seed);

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

/// The simulated-time cap of every run: a campaign or profiler that has not
/// reported by then fails the program instead of printing a half-filled
/// table.
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

/// Per-type legit request rates implied by a scenario's workload section
/// (closed-loop: users/think_mean split by mix weight; open-loop: rate split
/// by mix weight). Ground-truth input for TruthProfile.
std::vector<double> ScenarioRates(const microsvc::Application& app,
                                  const WorkloadSpec& workload);

/// Ground-truth profile for any app under per-type rates (white-box; used
/// by programs that study the attack itself rather than the profiler).
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

}  // namespace grunt::scenario
