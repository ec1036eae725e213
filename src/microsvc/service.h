#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "microsvc/types.h"
#include "sim/ring_buffer.h"
#include "sim/simulation.h"
#include "telemetry/bus.h"

namespace grunt::microsvc {

/// Runtime state of one microservice (all replicas aggregated).
///
/// Two coupled resources:
///  * **Thread slots** — bounded concurrency. A request holds a slot from
///    admission until it replies upstream, *including* the whole time it is
///    blocked on downstream calls (synchronous RPC). When all slots are in
///    use, incoming calls wait in an arrival queue while their caller's
///    thread stays blocked upstream — this is what propagates saturation
///    upstream (cross-tier queue overflow, [58]).
///  * **CPU cores** — FCFS multi-server for CPU bursts. Utilization here is
///    what CloudWatch-style monitors and the autoscaler observe.
///
/// Fault-tolerance extensions (all dormant under the default spec):
///  * **Admission control** — when `max_queue_per_replica` is set, arrivals
///    beyond the bounded waiting queue are rejected (load shedding).
///  * **Per-caller circuit breaker** — consecutive failed calls from one
///    caller open the breaker; calls fast-fail until the cooldown passes.
///
/// Graceful-degradation extensions (also dormant by default):
///  * **Per-downstream bulkhead + adaptive limiter** — this service, as a
///    *caller*, gates each outgoing RPC edge on a per-downstream in-flight
///    quota (bulkhead) and an RTT-driven AIMD limit, so a slow dependency
///    can only pin a bounded share of this pool's threads.
///  * **Deadline-aware shedding** — the Cluster consults this service's
///    DeadlineShedSpec on arrival and counts sheds here.
class Service {
 public:
  /// `bus` (may be null: standalone unit-test construction) receives
  /// queue-depth and breaker-transition events; the Cluster passes its own.
  Service(sim::Simulation& sim, ServiceSpec spec, ServiceId id,
          telemetry::TelemetryBus* bus = nullptr);

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  ServiceId id() const { return id_; }
  const ServiceSpec& spec() const { return spec_; }

  /// Asks for a thread slot; `on_granted` runs once one is available. FIFO
  /// among waiters. Returns false — and does NOT enqueue the callback — when
  /// admission control rejects the arrival (bounded queue full). Always true
  /// with an unbounded queue.
  /// A slot free now is granted by a zero-delay event, or in place, before
  /// AcquireSlot returns, when that event would fire next anyway
  /// (Simulation::ZeroDelayFiresNext), so nothing order-sensitive may follow
  /// the call in the caller's callback.
  /// Templated so the granted-now path calls, or hands the engine, the raw
  /// callable (no InplaceFunction round trip).
  template <class F>
  bool AcquireSlot(F&& on_granted) {
    if (slots_in_use_ < threads()) {
      ++slots_in_use_;
      if (sim_.ZeroDelayFiresNext()) {
        on_granted();
      } else {
        sim_.After(0, std::forward<F>(on_granted));
      }
      return true;
    }
    if (spec_.max_queue_per_replica > 0 &&
        slots_waiting() >= spec_.max_queue_per_replica * replicas_) {
      ++rejected_arrivals_;
      PublishQueueEvent(telemetry::QueueEvent::Kind::kRejected);
      return false;
    }
    slot_waiters_.push_back(sim::InplaceFunction(std::forward<F>(on_granted)));
    PublishQueueEvent(telemetry::QueueEvent::Kind::kEnqueued);
    return true;
  }

  /// Releases a slot previously granted and hands it to the next waiter, if
  /// any. The waiter's grant is a zero-delay event, or, when that event would
  /// fire next anyway and no CPU work is queued here, it is returned instead:
  /// the caller must run it once the rest of its callback is done. Queued
  /// CPU work rules that out because FinishBurst starts it after its `done`
  /// returns, and a grant run inside `done` would jump it. Empty otherwise.
  [[nodiscard]] sim::InplaceFunction ReleaseSlot();

  /// Runs a CPU burst of `demand`; `done` fires when the burst completes.
  /// Bursts are served FCFS by `cores()` parallel cores. A demand of zero
  /// completes by a zero-delay event, or in place, before RunCpu returns,
  /// when a core is free, no CPU work is queued and that event would fire
  /// next anyway (Simulation::ZeroDelayFiresNext), so nothing
  /// order-sensitive may follow the call in the caller's callback.
  /// Templated so the start-now fast path constructs the closure directly in
  /// the running_ entry — a by-value signature would relocate a 56-byte
  /// InplaceFunction per hop.
  template <class F>
  void RunCpu(SimDuration demand, F&& done) {
    if (cpu_busy_ < cores()) {
      if (demand == 0 && cpu_queue_.empty() && sim_.ZeroDelayFiresNext()) {
        // FinishBurst, minus the core the burst would hold for 0 us (so
        // there is no freed core to hand to queued work either).
        ++completed_bursts_;
        done();
        return;
      }
      StartBurst(demand, std::forward<F>(done));
    } else {
      cpu_queue_.push_back(
          CpuBurst{demand, sim::InplaceFunction(std::forward<F>(done))});
    }
  }

  // --- scaling (used by the autoscaler) ---
  void AddReplica();
  /// Removes one replica; capacity shrinks immediately but in-flight work is
  /// never aborted. Returns false when already at one replica.
  bool RemoveReplica();
  std::int32_t replicas() const { return replicas_; }
  std::int32_t threads() const { return replicas_ * spec_.threads_per_replica; }
  std::int32_t cores() const { return replicas_ * spec_.cores_per_replica; }

  std::int64_t rejected_arrivals() const { return rejected_arrivals_; }

  // --- circuit breaker (caller side of the RPC edge into this service) ---
  /// False while the breaker for `caller` is open (callers fast-fail).
  bool BreakerAllows(ServiceId caller) const;
  /// Reports the outcome of a call from `caller` that was actually issued
  /// (fast-fails are not reported, or an open breaker could never close).
  void ReportCallerOutcome(ServiceId caller, bool ok);

  // --- degradation gate (this service as the CALLER of an RPC edge) ---
  enum class DownstreamGate : std::uint8_t {
    kAdmitted = 0,      ///< charged; pair with EndDownstreamCall
    kBulkheadFull = 1,  ///< per-downstream quota exhausted
    kLimitClamped = 2,  ///< adaptive limit reached
  };
  /// True when any caller-side gate is configured; the Cluster skips the
  /// gate entirely otherwise, keeping the default hot path untouched.
  bool degradation_enabled() const {
    return spec_.bulkhead_per_downstream > 0 || spec_.adaptive_limit.enabled;
  }
  /// Admission decision for a call this service is about to issue into
  /// `downstream`. kAdmitted charges the edge's in-flight count.
  DownstreamGate AdmitDownstreamCall(ServiceId downstream);
  /// Resolves a previously admitted call: uncharges the edge and feeds the
  /// AIMD limiter one (rtt, ok) sample. A nonzero `nominal_rtt` (from the
  /// edge's RpcPolicy) overrides the learned no-load floor.
  void EndDownstreamCall(ServiceId downstream, SimDuration rtt, bool ok,
                         SimDuration nominal_rtt);
  std::int32_t downstream_in_flight(ServiceId downstream) const;
  /// Current adaptive limit on the edge (max_limit when never exercised).
  double adaptive_limit_now(ServiceId downstream) const;
  std::int64_t bulkhead_rejections() const { return bulkhead_rejections_; }
  std::int64_t limiter_rejections() const { return limiter_rejections_; }
  // --- deadline shedding (this service as the CALLEE; gate lives in
  //     Cluster::CallArrives, which owns the residual-cost estimate) ---
  void NoteDeadlineShed() { ++deadline_sheds_; }
  std::int64_t deadline_sheds() const { return deadline_sheds_; }

  /// Drain-time quiescence check: once the simulation has no pending events
  /// and every request completed, nothing may still hold a slot, CPU burst,
  /// or downstream-gate charge here. Empty string = healthy; otherwise one
  /// "name: violation" line per problem.
  std::string IdleInvariantsBroken() const;

  // --- instantaneous metrics ---
  std::int32_t slots_in_use() const { return slots_in_use_; }
  std::int32_t slots_waiting() const {
    return static_cast<std::int32_t>(slot_waiters_.size());
  }
  /// Total live demand pressure: in-service plus waiting for a slot.
  std::int32_t queue_length() const { return slots_in_use() + slots_waiting(); }
  std::int32_t cpu_busy() const { return cpu_busy_; }
  std::int32_t cpu_queue_length() const {
    return static_cast<std::int32_t>(cpu_queue_.size());
  }

  /// Cumulative busy core-microseconds up to Now(). Monitors diff this
  /// between samples: utilization = delta / (cores * window).
  std::int64_t CumBusyCoreTime();

  std::int64_t completed_bursts() const { return completed_bursts_; }

 private:
  struct CpuBurst {
    SimDuration demand = 0;
    sim::InplaceFunction done;
  };
  struct RunningBurst {
    std::uint64_t id;
    sim::InplaceFunction done;
  };
  struct BreakerState {
    std::int32_t consecutive_failures = 0;
    SimTime open_until = 0;
  };
  /// Caller-side state of one outgoing RPC edge (this service → downstream).
  struct DownstreamState {
    std::int32_t in_flight = 0;
    double limit = 0;          ///< adaptive limit; 0 = starts at max_limit
    SimDuration rtt_floor = 0; ///< fastest successful RTT seen; 0 = none yet
  };

  void AccumulateBusy();
  void MaybeStartCpu();

  /// Claims a core and schedules the burst-completion event. The closure
  /// is forwarded into the new running_ entry, constructed in place.
  template <class F>
  void StartBurst(SimDuration demand, F&& done) {
    AccumulateBusy();
    ++cpu_busy_;
    const std::uint64_t bid = next_burst_id_++;
    // The completion callback stays in the running_ entry so the event
    // closure is two words — small enough for the engine's inline buffer.
    sim_.After(demand, [this, bid] { FinishBurst(bid); });
    running_.emplace_back(bid, std::forward<F>(done));
  }

  void FinishBurst(std::uint64_t bid);
  void AdmitWaiters();

  void PublishQueueEvent(telemetry::QueueEvent::Kind kind);

  sim::Simulation& sim_;
  ServiceSpec spec_;
  ServiceId id_;
  telemetry::TelemetryBus* bus_;
  std::int32_t replicas_;

  std::int32_t slots_in_use_ = 0;
  sim::RingBuffer<sim::InplaceFunction> slot_waiters_;

  std::int32_t cpu_busy_ = 0;
  sim::RingBuffer<CpuBurst> cpu_queue_;
  std::vector<RunningBurst> running_;
  std::uint64_t next_burst_id_ = 0;
  std::int64_t busy_integral_ = 0;  ///< core-microseconds
  SimTime busy_last_update_ = 0;
  std::int64_t completed_bursts_ = 0;
  std::int64_t rejected_arrivals_ = 0;
  /// Per-caller breaker state, indexed by caller + 1 (0 = external client,
  /// kInvalidService). Grown on first failure report from a caller; absent
  /// entries mean "closed". Flat storage replaces the old std::map: callers
  /// are dense small service ids and the breaker check sits on the per-call
  /// hot path.
  std::vector<BreakerState> breakers_;
  /// Per-downstream gate state, indexed by downstream ServiceId (same dense
  /// flat-storage idiom as breakers_). Grown on first call into an edge.
  std::vector<DownstreamState> downstream_;
  std::int64_t bulkhead_rejections_ = 0;
  std::int64_t limiter_rejections_ = 0;
  std::int64_t deadline_sheds_ = 0;
};

}  // namespace grunt::microsvc
