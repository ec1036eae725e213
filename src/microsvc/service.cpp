#include "microsvc/service.h"

#include <algorithm>
#include <string>
#include <utility>

namespace grunt::microsvc {

Service::Service(sim::Simulation& sim, ServiceSpec spec, ServiceId id,
                 telemetry::TelemetryBus* bus)
    : sim_(sim), spec_(std::move(spec)), id_(id), bus_(bus),
      replicas_(spec_.initial_replicas) {}

void Service::PublishQueueEvent(telemetry::QueueEvent::Kind kind) {
  if (bus_ == nullptr || !bus_->queue_depth().has_subscribers()) return;
  telemetry::QueueEvent e;
  e.service = id_;
  e.kind = kind;
  e.at = sim_.Now();
  e.slots_in_use = slots_in_use_;
  e.waiting = slots_waiting();
  bus_->queue_depth().Publish(e);
}

sim::InplaceFunction Service::ReleaseSlot() {
  --slots_in_use_;
  if (slot_waiters_.empty() || slots_in_use_ >= threads()) return nullptr;
  ++slots_in_use_;
  if (cpu_queue_.empty() && sim_.ZeroDelayFiresNext()) {
    return slot_waiters_.pop_front();
  }
  sim_.After(0, slot_waiters_.pop_front());
  return nullptr;
}

void Service::AccumulateBusy() {
  const SimTime now = sim_.Now();
  busy_integral_ += static_cast<std::int64_t>(cpu_busy_) *
                    (now - busy_last_update_);
  busy_last_update_ = now;
}

std::int64_t Service::CumBusyCoreTime() {
  AccumulateBusy();
  return busy_integral_;
}

void Service::FinishBurst(std::uint32_t slot) {
  AccumulateBusy();
  --cpu_busy_;
  ++completed_bursts_;
  // Moved out first: `done` may start bursts here, which can grow running_.
  sim::InplaceFunction done = std::move(running_[slot]);
  free_running_.push_back(slot);
  done();
  MaybeStartCpu();
}

void Service::MaybeStartCpu() {
  while (!cpu_queue_.empty() && cpu_busy_ < cores()) {
    CpuBurst b = cpu_queue_.pop_front();
    StartBurst(b.demand, std::move(b.done));
  }
}

void Service::AdmitWaiters() {
  // Always events: a grant run in place would act before the next waiter's
  // grant is even queued.
  while (!slot_waiters_.empty() && slots_in_use_ < threads()) {
    ++slots_in_use_;
    sim_.After(0, slot_waiters_.pop_front());
  }
}

void Service::AddReplica() {
  ++replicas_;
  // New capacity can admit queued work immediately.
  MaybeStartCpu();
  AdmitWaiters();
}

bool Service::RemoveReplica() {
  if (replicas_ <= 1) return false;
  --replicas_;
  return true;
}

bool Service::BreakerAllows(ServiceId caller) const {
  if (spec_.breaker_threshold <= 0) return true;
  const auto idx = static_cast<std::size_t>(caller + 1);
  if (idx >= breakers_.size()) return true;  // never reported: closed
  return sim_.Now() >= breakers_[idx].open_until;
}

void Service::ReportCallerOutcome(ServiceId caller, bool ok) {
  // A zero cooldown never opens the breaker: Now() < open_until never holds.
  if (spec_.breaker_threshold <= 0 || spec_.breaker_cooldown <= 0) return;
  const auto idx = static_cast<std::size_t>(caller + 1);
  if (idx >= breakers_.size()) breakers_.resize(idx + 1);
  BreakerState& st = breakers_[idx];
  // "Open" as callers experience it: a passed cooldown already admits the
  // half-open trial, so a failure then re-opens the breaker.
  const bool was_open = sim_.Now() < st.open_until;
  // A trip stays on record until a success clears it, so that success
  // closes the breaker, during the cooldown or as the half-open trial.
  const bool was_tripped = st.open_until != 0;
  if (ok) {
    st.consecutive_failures = 0;
    st.open_until = 0;
  } else {
    ++st.consecutive_failures;
    if (st.consecutive_failures >= spec_.breaker_threshold) {
      // Saturate so a failed half-open trial re-opens immediately.
      st.consecutive_failures = spec_.breaker_threshold;
      st.open_until = sim_.Now() + spec_.breaker_cooldown;
    }
  }
  const bool is_open = sim_.Now() < st.open_until;
  const bool changed = ok ? was_tripped : is_open && !was_open;
  if (changed && bus_ != nullptr && bus_->breaker().has_subscribers()) {
    telemetry::BreakerTransition t;
    t.service = id_;
    t.caller = caller;
    t.at = sim_.Now();
    t.open = is_open;
    t.consecutive_failures = st.consecutive_failures;
    bus_->breaker().Publish(t);
  }
}

Service::DownstreamGate Service::AdmitDownstreamCall(ServiceId downstream) {
  const auto idx = static_cast<std::size_t>(downstream);
  if (idx >= downstream_.size()) downstream_.resize(idx + 1);
  DownstreamState& st = downstream_[idx];
  // Bulkhead first: a hard partition of the pool trumps the adaptive limit.
  if (spec_.bulkhead_per_downstream > 0 &&
      st.in_flight >= spec_.bulkhead_per_downstream * replicas_) {
    ++bulkhead_rejections_;
    return DownstreamGate::kBulkheadFull;
  }
  if (spec_.adaptive_limit.enabled) {
    if (st.limit == 0) st.limit = spec_.adaptive_limit.max_limit;
    if (st.in_flight >= static_cast<std::int32_t>(st.limit)) {
      ++limiter_rejections_;
      return DownstreamGate::kLimitClamped;
    }
  }
  ++st.in_flight;
  return DownstreamGate::kAdmitted;
}

void Service::EndDownstreamCall(ServiceId downstream, SimDuration rtt, bool ok,
                                SimDuration nominal_rtt) {
  DownstreamState& st = downstream_[static_cast<std::size_t>(downstream)];
  --st.in_flight;
  const AdaptiveLimitSpec& al = spec_.adaptive_limit;
  if (!al.enabled) return;
  if (st.limit == 0) st.limit = al.max_limit;
  if (ok && (st.rtt_floor == 0 || rtt < st.rtt_floor)) st.rtt_floor = rtt;
  const SimDuration floor = nominal_rtt > 0 ? nominal_rtt : st.rtt_floor;
  // Failures count as congestion: timeouts obviously, and a rejected call
  // means the edge is unhealthy — backing off is the safe read.
  const bool congested =
      !ok || (floor > 0 && static_cast<double>(rtt) >
                               al.rtt_tolerance * static_cast<double>(floor));
  if (congested) {
    st.limit = std::max<double>(al.min_limit, st.limit * al.decrease_factor);
  } else if (st.limit < al.max_limit) {
    st.limit = std::min<double>(al.max_limit, st.limit + 1.0 / st.limit);
  }
}

std::int32_t Service::downstream_in_flight(ServiceId downstream) const {
  const auto idx = static_cast<std::size_t>(downstream);
  return idx < downstream_.size() ? downstream_[idx].in_flight : 0;
}

double Service::adaptive_limit_now(ServiceId downstream) const {
  const auto idx = static_cast<std::size_t>(downstream);
  if (idx >= downstream_.size() || downstream_[idx].limit == 0) {
    return spec_.adaptive_limit.max_limit;
  }
  return downstream_[idx].limit;
}

std::string Service::IdleInvariantsBroken() const {
  std::string out;
  const auto fail = [&](const char* what, std::int64_t count) {
    out += spec_.name + ": " + what + " = " + std::to_string(count) + "\n";
  };
  if (slots_in_use_ != 0) fail("slots still held", slots_in_use_);
  if (!slot_waiters_.empty()) fail("slot waiters stranded", slots_waiting());
  if (cpu_busy_ != 0) fail("cpu bursts still running", cpu_busy_);
  if (!cpu_queue_.empty()) fail("cpu bursts still queued", cpu_queue_length());
  for (std::size_t d = 0; d < downstream_.size(); ++d) {
    if (downstream_[d].in_flight != 0) {
      fail("downstream-gate charges leaked", downstream_[d].in_flight);
    }
  }
  return out;
}

}  // namespace grunt::microsvc
