#include "cloud/ids.h"

#include <bit>
#include <cstdio>
#include <utility>

namespace grunt::cloud {
namespace {

/// Fibonacci hashing: the top bits of id * 2^64/phi spread the dense,
/// sequential client-id ranges (users, bots) evenly over the index.
std::size_t Home(std::uint64_t client_id, unsigned shift) {
  return static_cast<std::size_t>((client_id * 0x9E3779B97F4A7C15ull) >>
                                  shift);
}

}  // namespace

const char* ToString(AlertRule rule) {
  switch (rule) {
    case AlertRule::kInterRequestInterval: return "inter-request-interval";
    case AlertRule::kRateLimit: return "rate-limit";
    case AlertRule::kResourceSaturation: return "resource-saturation";
    case AlertRule::kServiceDegradation: return "service-degradation";
  }
  return "?";
}

std::string Describe(const Alert& alert) {
  const auto client = static_cast<unsigned long long>(alert.client_id);
  char evidence[96] = "";
  switch (alert.rule) {
    case AlertRule::kInterRequestInterval:
      std::snprintf(evidence, sizeof evidence, "client %llu, interval %g ms",
                    client, alert.value);
      break;
    case AlertRule::kRateLimit:
      std::snprintf(evidence, sizeof evidence,
                    "client %llu, %g requests in window", client, alert.value);
      break;
    case AlertRule::kResourceSaturation:
      std::snprintf(evidence, sizeof evidence, "service %g", alert.value);
      break;
    case AlertRule::kServiceDegradation:
      std::snprintf(evidence, sizeof evidence, "mean legit RT %g ms",
                    alert.value);
      break;
  }
  char line[160];
  std::snprintf(line, sizeof line, "[%g s] %s: %s", ToSeconds(alert.at),
                ToString(alert.rule), evidence);
  return line;
}

Ids::Ids(microsvc::Cluster& cluster, const ResourceMonitor* monitor,
         const ResponseTimeMonitor* rt_monitor, Config cfg)
    : cluster_(cluster), monitor_(monitor), rt_monitor_(rt_monitor),
      cfg_(cfg) {
  if (monitor_ != nullptr) {
    next_util_sample_.assign(cluster_.service_count(), 0);
    saturated_ticks_.assign(cluster_.service_count(), 0);
  }
  submit_sub_ = cluster_.telemetry().submit().Subscribe(
      [this](const telemetry::RequestSubmit& e) {
        if (running_) OnSubmit(e.cls, e.client_id, e.at);
      });
}

Ids::~Ids() {
  timer_.Cancel();
  cluster_.telemetry().submit().Unsubscribe(submit_sub_);
}

void Ids::Start() {
  if (running_) return;
  running_ = true;
  timer_ = cluster_.simulation().Every(Sec(1), sim::EventClass::kTimer,
                                       [this] { Evaluate(); });
}

void Ids::Stop() {
  running_ = false;
  timer_.Cancel();
}

void Ids::Raise(AlertRule rule, std::uint64_t client_id, double value,
                bool attack_attributed) {
  alerts_.push_back({cluster_.simulation().Now(), rule, client_id, value});
  ++rule_counts_[static_cast<std::size_t>(rule)];
  if (attack_attributed) ++attributed_attack_alerts_;
}

std::uint32_t Ids::SessionFor(std::uint64_t client_id) {
  if (2 * sessions_.size() >= index_.size()) GrowIndex();
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = Home(client_id, index_shift_);; i = (i + 1) & mask) {
    IndexSlot& slot = index_[i];
    if (slot.session == kNoSession) {
      slot = {client_id, static_cast<std::uint32_t>(sessions_.size())};
      sessions_.emplace_back();
      return slot.session;
    }
    if (slot.client_id == client_id) return slot.session;
  }
}

void Ids::GrowIndex() {
  const std::size_t capacity = index_.empty() ? 64 : 2 * index_.size();
  const std::vector<IndexSlot> old =
      std::exchange(index_, std::vector<IndexSlot>(capacity));
  index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  const std::size_t mask = capacity - 1;
  for (const IndexSlot& slot : old) {
    if (slot.session == kNoSession) continue;
    std::size_t i = Home(slot.client_id, index_shift_);
    while (index_[i].session != kNoSession) i = (i + 1) & mask;
    index_[i] = slot;
  }
}

void Ids::OnSubmit(microsvc::RequestClass cls, std::uint64_t client_id,
                   SimTime at) {
  const std::uint32_t id = SessionFor(client_id);
  Session& s = sessions_[id];
  const bool attack_session = (cls != microsvc::RequestClass::kLegit);
  s.is_attack = s.is_attack || attack_session;

  // Behavioral rule: consecutive requests too close together.
  if (s.total_requests >= cfg_.min_session_requests - 1 &&
      s.total_requests > 0 && at - s.last_request < cfg_.min_inter_request) {
    Raise(AlertRule::kInterRequestInterval, client_id,
          ToMillis(at - s.last_request), s.is_attack);
  }
  s.last_request = at;
  ++s.total_requests;

  // Rate rule: sliding-window per-IP budget. Submits arrive in clock
  // order, so the shared FIFO is sorted by time and popping its front up to
  // `at - rate_window` leaves exactly the requests a per-session window
  // would still hold at this submit. A budget reset bumps the session's
  // epoch instead of touching the FIFO; older entries then expire without
  // counting. Push before expiring: a rate_window <= 0 empties the window.
  window_.push_back({at, id, s.epoch});
  ++s.in_window;
  const SimTime horizon = at - cfg_.rate_window;
  while (!window_.empty() && window_.front().at <= horizon) {
    const WindowEntry e = window_.pop_front();
    Session& owner = sessions_[e.session];
    if (e.epoch == owner.epoch) --owner.in_window;
  }
  if (s.in_window > cfg_.rate_limit) {
    Raise(AlertRule::kRateLimit, client_id, static_cast<double>(s.in_window),
          s.is_attack);
    s.in_window = 0;  // one alert per overflow, then reset the budget
    ++s.epoch;
  }
}

void Ids::Evaluate() {
  if (monitor_ != nullptr) {
    for (std::size_t i = 0; i < next_util_sample_.size(); ++i) {
      const auto sid = static_cast<microsvc::ServiceId>(i);
      const auto& series = monitor_->cpu_util(sid);
      for (; next_util_sample_[i] < series.size(); ++next_util_sample_[i]) {
        if (series.at(next_util_sample_[i]).value >=
            cfg_.saturation_threshold) {
          ++saturated_ticks_[i];
          if (saturated_ticks_[i] >= cfg_.saturation_samples) {
            Raise(AlertRule::kResourceSaturation, 0, static_cast<double>(sid),
                  /*attack_attributed=*/false);
            saturated_ticks_[i] = 0;
          }
        } else {
          saturated_ticks_[i] = 0;
        }
      }
    }
  }
  if (rt_monitor_ != nullptr) {
    const auto& series = rt_monitor_->legit_mean_ms();
    for (; next_rt_sample_ < series.size(); ++next_rt_sample_) {
      if (series.at(next_rt_sample_).value >= cfg_.degradation_rt_ms) {
        Raise(AlertRule::kServiceDegradation, 0,
              series.at(next_rt_sample_).value,
              /*attack_attributed=*/false);
      }
    }
  }
}

}  // namespace grunt::cloud
