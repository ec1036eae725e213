#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/monitor.h"
#include "microsvc/cluster.h"

namespace grunt::cloud {

/// One scaling decision, for post-run analysis (Fig 14 / Fig 15b). The
/// canonical record lives on the telemetry scale channel; this alias keeps
/// the historical cloud:: spelling.
using ScaleAction = telemetry::ScaleEvent;

/// Threshold autoscaler mirroring the paper's policy (Sec V-B): scale up
/// when a service's CPU utilization exceeds `up_threshold` for `window`
/// straight, scale down below `down_threshold` for `window` straight.
/// Decisions are taken from a coarse (1 s) ResourceMonitor — which is why
/// sub-sampling-granularity millibottlenecks never trigger it.
class AutoScaler {
 public:
  struct Config {
    double up_threshold = 0.70;
    double down_threshold = 0.30;
    SimDuration window = Sec(30);
    /// Time from the scale-out decision until the replica serves traffic.
    SimDuration provision_delay = Sec(20);
    /// Minimum spacing between consecutive actions on one service.
    SimDuration cooldown = Sec(30);

    // Spec-visible (scenario files serialize this struct).
    friend bool operator==(const Config&, const Config&) = default;
  };

  /// `monitor` must sample CPU utilization; the autoscaler evaluates its
  /// policy every monitor granularity tick.
  AutoScaler(microsvc::Cluster& cluster, const ResourceMonitor& monitor,
             Config cfg);
  /// Cancels the evaluation timer and any replica still provisioning, so
  /// the cluster may outlive the autoscaler.
  ~AutoScaler();
  // The evaluation timer and provisioning events capture `this`.
  AutoScaler(const AutoScaler&) = delete;
  AutoScaler& operator=(const AutoScaler&) = delete;

  void Start();
  void Stop();

  /// Every action taken, in decision order; each is also published on the
  /// cluster's telemetry scale channel as it happens. The cooldown caps its
  /// growth at one entry per service per `cooldown`.
  const std::vector<ScaleAction>& actions() const { return actions_; }
  std::size_t scale_up_count() const { return scale_ups_; }
  std::size_t scale_down_count() const { return scale_downs_; }

 private:
  void Evaluate();
  /// Appends to the log, bumps the counters and publishes on the scale
  /// channel.
  void Record(const ScaleAction& action);

  microsvc::Cluster& cluster_;
  const ResourceMonitor& monitor_;
  Config cfg_;
  sim::EventHandle timer_;
  bool running_ = false;
  /// Scale-outs decided but not yet serving.
  std::vector<sim::EventHandle> provisioning_;
  std::vector<SimTime> last_action_;
  std::vector<ScaleAction> actions_;
  std::size_t scale_ups_ = 0;
  std::size_t scale_downs_ = 0;
};

}  // namespace grunt::cloud
