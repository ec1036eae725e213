#include "cloud/autoscaler.h"

#include <algorithm>
#include <limits>

namespace grunt::cloud {

AutoScaler::AutoScaler(microsvc::Cluster& cluster,
                       const ResourceMonitor& monitor, Config cfg)
    : cluster_(cluster), monitor_(monitor), cfg_(cfg) {
  const std::size_t n = cluster_.service_count();
  last_action_.assign(n, std::numeric_limits<SimTime>::min() / 2);
}

AutoScaler::~AutoScaler() {
  timer_.Cancel();
  for (sim::EventHandle& pending : provisioning_) pending.Cancel();
}

void AutoScaler::Start() {
  if (running_) return;
  running_ = true;
  timer_ = cluster_.simulation().Every(monitor_.granularity(),
                                       [this] { Evaluate(); });
}

void AutoScaler::Stop() {
  running_ = false;
  timer_.Cancel();
}

void AutoScaler::Evaluate() {
  // CloudWatch-style alarm: the MEAN utilization over the evaluation window
  // must breach the threshold (a single quiet sample inside a hot window
  // does not reset the alarm, and — crucially for the paper's stealth
  // argument — sub-sampling millibottlenecks can never lift the windowed
  // mean over the threshold).
  const SimTime now = cluster_.simulation().Now();
  const auto window_ticks =
      static_cast<std::size_t>(cfg_.window / monitor_.granularity());
  for (std::size_t i = 0; i < cluster_.service_count(); ++i) {
    const auto sid = static_cast<microsvc::ServiceId>(i);
    const auto& series = monitor_.cpu_util(sid);
    const RunningStats window = series.WindowStats(now - cfg_.window, now);
    if (window.count() < window_ticks) continue;  // not enough data yet
    auto& svc = cluster_.service(sid);
    if (now - last_action_[i] < cfg_.cooldown) continue;
    if (window.mean() > cfg_.up_threshold &&
        svc.replicas() < svc.spec().max_replicas) {
      last_action_[i] = now;
      std::erase_if(provisioning_, [](const sim::EventHandle& h) {
        return !h.pending();
      });
      provisioning_.push_back(cluster_.simulation().After(
          cfg_.provision_delay, [this, sid] {
            auto& s = cluster_.service(sid);
            s.AddReplica();
            Record({cluster_.simulation().Now(), sid, +1, s.replicas()});
          }));
    } else if (window.mean() < cfg_.down_threshold && svc.replicas() > 1) {
      last_action_[i] = now;
      if (svc.RemoveReplica()) {
        Record({now, sid, -1, svc.replicas()});
      }
    }
  }
}

void AutoScaler::Record(const ScaleAction& action) {
  if (action.delta > 0) {
    ++scale_ups_;
  } else {
    ++scale_downs_;
  }
  actions_.push_back(action);
  auto& channel = cluster_.telemetry().scale();
  if (channel.has_subscribers()) channel.Publish(action);
}

}  // namespace grunt::cloud
