#include "cloud/monitor.h"

#include <algorithm>

namespace grunt::cloud {

ResourceMonitor::ResourceMonitor(microsvc::Cluster& cluster, Config cfg)
    : cluster_(cluster), cfg_(std::move(cfg)) {
  const std::size_t n = cluster_.service_count();
  prev_busy_.assign(n, 0);
  cpu_util_.resize(n);
  queue_len_.resize(n);
  replicas_.resize(n);
  // Resolve the bus-fed gauges once; the Cluster registered them at
  // construction. Sampling reads exclusively through these handles.
  auto& reg = cluster_.telemetry().metrics();
  gauges_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string prefix = "svc." + std::to_string(i) + ".";
    gauges_.push_back(ServiceGauges{
        reg.Gauge(prefix + "busy_core_us"),
        reg.Gauge(prefix + "queue_len"),
        reg.Gauge(prefix + "replicas"),
        reg.Gauge(prefix + "cores"),
    });
  }
  gateway_bytes_g_ = reg.Gauge("gateway.bytes");
}

ResourceMonitor::~ResourceMonitor() { timer_.Cancel(); }

void ResourceMonitor::Start() {
  if (running_) return;
  running_ = true;
  // Initialize baselines so the first window is measured, not cumulative.
  const auto& reg = cluster_.telemetry().metrics();
  for (std::size_t i = 0; i < cluster_.service_count(); ++i) {
    prev_busy_[i] = reg.ReadGauge(gauges_[i].busy_core_us);
  }
  prev_gateway_bytes_ = reg.ReadGauge(gateway_bytes_g_);
  timer_ = cluster_.simulation().Every(cfg_.granularity,
                                       [this] { Sample(); });
}

void ResourceMonitor::Stop() {
  running_ = false;
  timer_.Cancel();
}

void ResourceMonitor::Sample() {
  // Every value read here is a bus-fed gauge. The arithmetic is identical
  // to the old direct polling: the gauges expose exact integer counts, and
  // doubles subtract integers below 2^53 exactly.
  const SimTime now = cluster_.simulation().Now();
  const auto& reg = cluster_.telemetry().metrics();
  for (std::size_t i = 0; i < cluster_.service_count(); ++i) {
    const ServiceGauges& g = gauges_[i];
    const double busy = reg.ReadGauge(g.busy_core_us);
    const double window_core_us =
        reg.ReadGauge(g.cores) * static_cast<double>(cfg_.granularity);
    const double util =
        window_core_us <= 0
            ? 0.0
            : std::clamp((busy - prev_busy_[i]) / window_core_us, 0.0, 1.0);
    prev_busy_[i] = busy;
    cpu_util_[i].Add(now, util);
    queue_len_[i].Add(now, reg.ReadGauge(g.queue_len));
    replicas_[i].Add(now, reg.ReadGauge(g.replicas));
  }
  const double bytes = reg.ReadGauge(gateway_bytes_g_);
  const double mbps =
      (bytes - prev_gateway_bytes_) / (1e6 * ToSeconds(cfg_.granularity));
  prev_gateway_bytes_ = bytes;
  gateway_mbps_.Add(now, mbps);
}

microsvc::ServiceId ResourceMonitor::HottestService(SimTime from,
                                                    SimTime to) const {
  microsvc::ServiceId best = 0;
  double best_util = -1;
  for (std::size_t i = 0; i < cpu_util_.size(); ++i) {
    const double mean = cpu_util_[i].WindowMean(from, to);
    if (mean > best_util) {
      best_util = mean;
      best = static_cast<microsvc::ServiceId>(i);
    }
  }
  return best;
}

ResponseTimeMonitor::ResponseTimeMonitor(microsvc::Cluster& cluster,
                                         Config cfg)
    : cluster_(cluster), cfg_(std::move(cfg)) {
  // Log-spaced millisecond buckets covering sub-ms RPCs up to multi-second
  // tail stalls; intern-by-name makes a second monitor share the series.
  rt_hist_ = cluster_.telemetry().metrics().Histogram(
      cfg_.name + ".legit_ms",
      {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
  completion_sub_ = cluster_.telemetry().completion().Subscribe(
      [this](const microsvc::CompletionRecord& r) {
    if (!running_) return;
    if (r.cls != microsvc::RequestClass::kLegit) return;
    ++legit_outcomes_[static_cast<std::size_t>(r.outcome)];
    if (r.outcome != microsvc::Outcome::kOk) {
      ++window_errors_;
      return;
    }
    const double rt_ms = ToMillis(r.end - r.start);
    window_sum_ms_ += rt_ms;
    ++window_ok_;
    cluster_.telemetry().metrics().Observe(rt_hist_, rt_ms);
    legit_all_.emplace_back(r.end, rt_ms);
  });
}

ResponseTimeMonitor::~ResponseTimeMonitor() {
  timer_.Cancel();
  cluster_.telemetry().completion().Unsubscribe(completion_sub_);
}

void ResponseTimeMonitor::Start() {
  if (running_) return;
  running_ = true;
  timer_ = cluster_.simulation().Every(cfg_.granularity,
                                       [this] { Flush(); });
}

void ResponseTimeMonitor::Stop() {
  running_ = false;
  timer_.Cancel();
}

void ResponseTimeMonitor::Flush() {
  const SimTime now = cluster_.simulation().Now();
  const auto ok = static_cast<double>(window_ok_);
  legit_mean_ms_.Add(now, window_ok_ == 0 ? 0.0 : window_sum_ms_ / ok);
  goodput_.Add(now, ok / ToSeconds(cfg_.granularity));
  const double total = static_cast<double>(window_ok_ + window_errors_);
  error_rate_.Add(now, total <= 0
                           ? 0.0
                           : static_cast<double>(window_errors_) / total);
  window_sum_ms_ = 0;
  window_ok_ = 0;
  window_errors_ = 0;
}

Samples ResponseTimeMonitor::LegitWindow(SimTime from, SimTime to) const {
  Samples out;
  for (const auto& [end, rt] : legit_all_) {
    if (end >= from && end < to) out.Add(rt);
  }
  return out;
}

}  // namespace grunt::cloud
