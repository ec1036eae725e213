#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "microsvc/application.h"
#include "microsvc/service.h"
#include "microsvc/types.h"
#include "sim/simulation.h"
#include "sim/slab_pool.h"
#include "telemetry/bus.h"
#include "util/rng.h"

namespace grunt::microsvc {

/// Canonical observation records live in the telemetry plane; these aliases
/// keep the historical microsvc:: spellings working.
using CompletionRecord = telemetry::CompletionRecord;
using SpanEvent = telemetry::SpanEvent;

/// Instantiates an Application into a running simulation and drives the
/// request lifecycle across services.
///
/// Lifecycle of one request along its critical-path chain s0 → … → sn:
///  1. hop i's call arrives at s_i (after per-message network latency) and
///     waits for a thread slot;
///  2. once granted, s_i runs the hop's pre-call CPU burst, then issues the
///     synchronous call to s_{i+1} **while keeping its slot**;
///  3. when the reply from s_{i+1} comes back, s_i runs the hop's post-reply
///     CPU burst, releases its slot and replies to s_{i-1};
///  4. hop 0's reply returns to the client and the CompletionRecord is
///     published on the completion channel, then handed to the request's
///     on_complete.
/// Both of the paper's blocking effects (execution blocking, cross-tier
/// queue overflow) are emergent consequences of steps 2–3.
///
/// Fault tolerance (per-hop RpcPolicy, all dormant by default): each RPC
/// edge can carry a client timeout and bounded retries with exponential
/// backoff + jitter; a timed-out attempt keeps executing downstream as
/// orphan work (its late reply is discarded), while the retry re-injects a
/// fresh arrival — the mechanism behind retry storms. An end-to-end
/// deadline on the request type truncates every downstream attempt's
/// budget. Failures (timeout, breaker or gate fast-fail, load-shed or
/// deadline-shed rejection) propagate upstream as error replies: each
/// upstream hop skips its post-reply burst, releases its slot, and may
/// itself retry.
///
/// The lifecycle is an explicit state machine over three slab-pooled record
/// kinds addressed by generation-checked handles (sim::PoolHandle, the
/// sim::EventHandle idiom): ActiveRequest (one per request), CallState (one
/// per RPC attempt, caller side) and HopCtx (one per attempt's hop
/// execution, callee side). Event closures carry `this` plus a handle — a
/// few words, always inside the engine's inline buffer — so the steady-state
/// request path schedules, fires and completes without touching the
/// allocator. A CallState's slot is released the instant the attempt
/// resolves; the late reply of an orphaned attempt carries a stale handle
/// and is discarded by the generation check, which replaces the old
/// `resolved` flag + shared_ptr keep-alive.
class Cluster {
 public:
  using CompletionCallback = std::function<void(const CompletionRecord&)>;

  Cluster(sim::Simulation& sim, const Application& app, std::uint64_t seed);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Submits a request of `type` now. `heavy` requests use the type's
  /// heavy_multiplier on every CPU demand. Returns the request id.
  std::uint64_t Submit(RequestTypeId type, RequestClass cls, bool heavy,
                       std::uint64_t client_id,
                       CompletionCallback on_complete = nullptr);

  const Application& app() const { return app_; }
  sim::Simulation& simulation() { return sim_; }

  Service& service(ServiceId id) { return *services_.at(static_cast<std::size_t>(id)); }
  const Service& service(ServiceId id) const {
    return *services_.at(static_cast<std::size_t>(id));
  }
  std::size_t service_count() const { return services_.size(); }

  /// Cumulative request+response bytes seen at the gateway. Failed requests
  /// count only their request bytes (the error reply is negligible).
  std::int64_t gateway_bytes() const { return gateway_bytes_; }

  std::uint64_t submitted_count() const { return next_request_id_; }
  /// Requests that reached a terminal outcome (any Outcome value).
  std::uint64_t completed_count() const { return completed_count_; }
  /// Client-view in-flight count. Orphan work from timed-out attempts may
  /// still be draining inside the cluster after this reaches zero.
  std::uint64_t in_flight() const { return next_request_id_ - completed_count_; }
  /// Terminal outcomes by kind; sums to completed_count().
  std::uint64_t outcome_count(Outcome o) const {
    return outcome_counts_[static_cast<std::size_t>(o)];
  }
  std::uint64_t ok_count() const { return outcome_count(Outcome::kOk); }

  /// The cluster's observation plane. Everything that used to be a bolt-on
  /// listener (span sink, submit/completion listeners, monitor polling) is a
  /// subscription on these channels or a gauge in the registry. Dispatch is
  /// synchronous in registration order; completion subscribers fire before
  /// the per-request on_complete callback.
  telemetry::TelemetryBus& telemetry() { return bus_; }
  const telemetry::TelemetryBus& telemetry() const { return bus_; }

  /// Pool occupancy of the request state machine (bench/diagnostic surface).
  struct LifecycleStats {
    sim::SlabPoolStats requests;
    sim::SlabPoolStats calls;
    sim::SlabPoolStats hops;
  };
  LifecycleStats lifecycle_stats() const;

  /// End-of-run conservation check, meaningful once the simulation has fully
  /// drained (no pending events): every submitted request reached exactly
  /// one terminal outcome (admitted == sum over outcome kinds), the three
  /// lifecycle slab pools leaked no handles, and every service is quiescent
  /// (no held slots, stranded waiters, live CPU work, or charged
  /// downstream gates). Returns "" when healthy, else one violation per
  /// line. Tier-1 tests assert this at drain.
  std::string DrainInvariantsBroken() const;

  /// Requests refused by deadline-aware shedding across all services.
  std::int64_t deadline_sheds() const;

 private:
  /// Per-request record. Pooled: `refs` counts the live CallState/HopCtx
  /// records and scheduled retry/static-complete closures pointing at it;
  /// the slot is recycled when the request is terminal and the last
  /// reference (e.g. a draining orphan subtree) lets go.
  struct ActiveRequest {
    std::uint64_t id = 0;
    RequestTypeId type = kInvalidRequestType;
    /// app_.request_type(type), resolved once by Submit (the Application is
    /// immutable, so the pointer stays valid).
    const RequestTypeSpec* spec = nullptr;
    RequestClass cls = RequestClass::kLegit;
    bool heavy = false;
    bool terminal = false;  ///< guards the exactly-one-outcome invariant
    std::int32_t refs = 0;
    std::uint64_t client_id = 0;
    SimTime start = 0;
    SimTime deadline = 0;  ///< absolute; 0 = none
    std::int32_t retries = 0;
    CompletionCallback on_complete;
  };

  /// Caller-side state of one RPC attempt into `hop`. The timeout timer,
  /// the reply and the rejection message all race to ResolveCall; the first
  /// wins and releases the slot, so later arrivals (e.g. an orphan
  /// attempt's late reply) carry a stale handle and are discarded. The
  /// continuation is not a closure but data: a null `parent_hop` means
  /// "this is hop 0 — complete the request", anything else names the
  /// upstream HopCtx waiting on this edge.
  struct CallState {
    sim::PoolHandle req;
    sim::PoolHandle parent_hop;  ///< null: edge 0, outcome completes the request
    std::uint32_t hop = 0;
    std::int32_t attempt = 0;
    ServiceId caller = kInvalidService;
    bool sent = false;  ///< actually issued (false: breaker/deadline fast-fail)
    bool deadline_limited = false;  ///< timeout truncated by the deadline
    /// Charged the caller's per-downstream gate (bulkhead/adaptive limit);
    /// ResolveCall must uncharge and feed the limiter an RTT sample.
    bool gated = false;
    SimTime issued_at = 0;  ///< gate-admission time, start of the RTT sample
    sim::EventHandle timeout;
  };

  /// Callee-side state of one attempt's hop execution. The terminal
  /// transition (EndHop) sends the reply upstream — it pays the reply's
  /// network latency and then races against the caller's timeout inside
  /// ResolveCall via the (possibly stale) `call` handle. The timestamps are
  /// this attempt's own, so an orphaned attempt's span never borrows a
  /// retry's.
  struct HopCtx {
    sim::PoolHandle req;
    sim::PoolHandle call;  ///< caller-side state this hop replies to
    std::uint32_t hop = 0;
    /// The hop's spec, the service executing it and whether it is the
    /// path's last hop, resolved once by IssueCall; every later step of the
    /// hop reads them from here.
    const Hop* spec = nullptr;
    Service* svc = nullptr;
    bool last = false;
    SimTime arrived = 0;       ///< call reached the service
    SimTime slot_granted = 0;  ///< thread slot acquired
  };

  /// Issues attempt `attempt` of the RPC edge into `hop`; the edge's final
  /// outcome (after retries) reaches `parent_hop` — or completes the
  /// request when `parent_hop` is null — exactly once.
  void IssueCall(sim::PoolHandle req_h, std::uint32_t hop, ServiceId caller,
                 std::int32_t attempt, sim::PoolHandle parent_hop);
  /// Fails a call that was never sent (deadline, breaker, caller-side gate).
  void RejectCall(sim::PoolHandle call_h, ServiceId caller, Outcome o);
  void ResolveCall(sim::PoolHandle call_h, Outcome o);
  /// Feeds a resolved edge's outcome to its continuation.
  void ContinueAfterCall(sim::PoolHandle req_h, sim::PoolHandle parent_hop,
                         Outcome o);
  void CallArrives(sim::PoolHandle hop_h);
  void OnSlotGranted(sim::PoolHandle hop_h);
  void AfterPreCpu(sim::PoolHandle hop_h);
  /// Releases the hop's slot and replies `o` upstream.
  void EndHop(sim::PoolHandle hop_h, Outcome o);
  /// Publishes the hop's span, finishing now (EndHop).
  void EmitSpan(const HopCtx& ctx, const ActiveRequest& req);
  void CompleteWith(sim::PoolHandle req_h, Outcome o);
  void Ref(ActiveRequest& req) { ++req.refs; }
  void Unref(sim::PoolHandle req_h);
  SimDuration BackoffDelay(const RpcPolicy& policy, std::int32_t attempt);
  SimDuration DrawDemand(SimDuration mean, double multiplier);
  /// True when the request's remaining deadline budget cannot cover the
  /// expected residual path cost from `hop` onward under `shed`'s margin.
  bool ShouldShedForDeadline(const ActiveRequest& req, std::uint32_t hop,
                             const DeadlineShedSpec& shed) const;
  SimDuration NetLatency() const { return app_.net_latency(); }

  /// Expected residual cost of a request type from hop h (inclusive) to the
  /// client's reply, precomputed per (type, hop) for the deadline shedder:
  /// mean CPU microseconds still to burn (pre+post of every remaining hop,
  /// before the heavy multiplier) and network messages still to pay.
  struct ResidualCost {
    double cpu_mean = 0;
    double messages = 0;
  };

  /// Registers the per-service, gateway and engine gauges (ctor helper).
  void RegisterGauges();

  sim::Simulation& sim_;
  const Application& app_;
  RngStream demand_rng_;
  RngStream retry_rng_;
  /// Declared before services_: each Service holds a pointer to the bus.
  telemetry::TelemetryBus bus_;
  std::vector<std::unique_ptr<Service>> services_;
  std::vector<std::vector<ResidualCost>> residual_costs_;  ///< [type][hop]
  sim::SlabPool<ActiveRequest> requests_;
  sim::SlabPool<CallState> calls_;
  sim::SlabPool<HopCtx> hops_;
  std::int64_t gateway_bytes_ = 0;
  std::uint64_t next_request_id_ = 0;
  std::uint64_t completed_count_ = 0;
  std::array<std::uint64_t, kOutcomeCount> outcome_counts_{};
};

}  // namespace grunt::microsvc
