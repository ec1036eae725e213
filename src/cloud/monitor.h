#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "microsvc/cluster.h"
#include "util/stats.h"
#include "util/timeseries.h"

namespace grunt::cloud {

/// Periodically samples per-service CPU utilization and queue length plus
/// gateway throughput — the role CloudWatch / Azure Monitor / docker-stats
/// play in the paper. The sampling granularity is the whole story of the
/// stealthiness argument: 1 s samplers cannot see <500 ms millibottlenecks,
/// a 100 ms sampler can (Fig 13 vs Fig 14).
class ResourceMonitor {
 public:
  struct Config {
    SimDuration granularity = Sec(1);
    std::string name = "cloudwatch";

    // Spec-visible (scenario files serialize the granularity).
    friend bool operator==(const Config&, const Config&) = default;
  };

  ResourceMonitor(microsvc::Cluster& cluster, Config cfg);
  /// Cancels the sampling timer, so the cluster may outlive the monitor.
  ~ResourceMonitor();
  // The sampling timer captures `this`.
  ResourceMonitor(const ResourceMonitor&) = delete;
  ResourceMonitor& operator=(const ResourceMonitor&) = delete;

  void Start();
  void Stop();

  SimDuration granularity() const { return cfg_.granularity; }
  const std::string& name() const { return cfg_.name; }

  /// Utilization in [0,1] per sample window.
  const TimeSeries& cpu_util(microsvc::ServiceId s) const {
    return cpu_util_.at(static_cast<std::size_t>(s));
  }
  /// Instantaneous queue length (in-service + waiting) at sample times.
  const TimeSeries& queue_len(microsvc::ServiceId s) const {
    return queue_len_.at(static_cast<std::size_t>(s));
  }
  /// Gateway traffic in MB/s per sample window.
  const TimeSeries& gateway_mbps() const { return gateway_mbps_; }
  /// Replica count at sample times.
  const TimeSeries& replicas(microsvc::ServiceId s) const {
    return replicas_.at(static_cast<std::size_t>(s));
  }

 private:
  void Sample();

  microsvc::Cluster& cluster_;
  Config cfg_;
  sim::EventHandle timer_;
  bool running_ = false;
  /// Interned handles into the cluster's MetricsRegistry: the monitor reads
  /// the bus-fed gauges the Cluster registered, never Service internals.
  struct ServiceGauges {
    telemetry::MetricsRegistry::Id busy_core_us;
    telemetry::MetricsRegistry::Id queue_len;
    telemetry::MetricsRegistry::Id replicas;
    telemetry::MetricsRegistry::Id cores;
  };
  std::vector<ServiceGauges> gauges_;
  telemetry::MetricsRegistry::Id gateway_bytes_g_;
  std::vector<double> prev_busy_;
  double prev_gateway_bytes_ = 0;
  std::vector<TimeSeries> cpu_util_;
  std::vector<TimeSeries> queue_len_;
  std::vector<TimeSeries> replicas_;
  TimeSeries gateway_mbps_;
};

/// Windows end-to-end response times of completed requests into a mean,
/// goodput and error-rate series per granularity tick. Separates legitimate
/// traffic from attack/probe traffic so benches can report "RT perceived by
/// normal users" exactly as the paper does.
///
/// Only successful (Outcome::kOk) completions enter the RT windows — a
/// timed-out request's "latency" is just its timeout, and mixing it in
/// would make aggressive timeouts look like a latency win. Failures are
/// accounted separately via error_rate() and goodput().
class ResponseTimeMonitor {
 public:
  struct Config {
    SimDuration granularity = Sec(1);
    std::string name = "rt";
  };

  ResponseTimeMonitor(microsvc::Cluster& cluster, Config cfg);
  /// Unsubscribes from the cluster's bus and cancels the flush timer, so
  /// the cluster may outlive the monitor.
  ~ResponseTimeMonitor();
  // The bus handler and the flush timer capture `this`.
  ResponseTimeMonitor(const ResponseTimeMonitor&) = delete;
  ResponseTimeMonitor& operator=(const ResponseTimeMonitor&) = delete;

  void Start();
  void Stop();

  /// Mean RT (ms) of legitimate requests completed per window (0 if none).
  const TimeSeries& legit_mean_ms() const { return legit_mean_ms_; }
  /// Successful legitimate completions per second per window.
  const TimeSeries& goodput() const { return goodput_; }
  /// Fraction of legitimate completions per window that failed (timeout,
  /// rejection, deadline); 0 when the window is empty.
  const TimeSeries& error_rate() const { return error_rate_; }

  /// Cumulative legitimate completions by terminal outcome since Start().
  std::uint64_t legit_outcome_count(microsvc::Outcome o) const {
    return legit_outcomes_[static_cast<std::size_t>(o)];
  }

  /// All legitimate (successful) RTs (ms) observed in [from, to) by
  /// completion time.
  Samples LegitWindow(SimTime from, SimTime to) const;

 private:
  void Flush();

  microsvc::Cluster& cluster_;
  Config cfg_;
  sim::EventHandle timer_;
  bool running_ = false;
  telemetry::SubscriptionId completion_sub_ = 0;
  /// Cumulative legit-RT histogram in the cluster's MetricsRegistry
  /// ("<name>.legit_ms"): every successful legit completion is Observe()d,
  /// so Snapshot() exports bucketed RTs with p95/p99 alongside the gauges.
  telemetry::MetricsRegistry::Id rt_hist_ =
      telemetry::MetricsRegistry::kInvalidId;
  /// Successful legit RTs in the current window: their sum, added in
  /// completion order, and their count.
  double window_sum_ms_ = 0;
  std::uint64_t window_ok_ = 0;
  std::uint64_t window_errors_ = 0;  ///< failed legit completions in window
  std::array<std::uint64_t, microsvc::kOutcomeCount> legit_outcomes_{};
  std::vector<std::pair<SimTime, double>> legit_all_;  ///< (end, rt_ms), kOk
  TimeSeries legit_mean_ms_;
  TimeSeries goodput_;
  TimeSeries error_rate_;
};

}  // namespace grunt::cloud
