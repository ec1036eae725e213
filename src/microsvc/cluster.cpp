#include "microsvc/cluster.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "telemetry/engine_metrics.h"

namespace grunt::microsvc {

// The lifecycle below is the pooled rewrite of the original shared_ptr +
// std::function implementation. Observable behaviour is bit-identical: every
// sim_.After() call, RNG draw and Service interaction happens at the same
// point in the same order as before (pinned by the golden completion-stream
// hash tests), only the storage of the in-flight state changed. Three
// invariants carry the memory safety:
//  * a CallState slot is released the moment the attempt resolves — any
//    later reply/timeout carries a stale handle and is dropped by the pool's
//    generation check (this replaces the old `resolved` flag);
//  * a HopCtx slot is released at its terminal transition: EndHop, or a
//    load-shed or deadline-shed rejection on arrival (CallArrives);
//  * an ActiveRequest slot is released when it is terminal AND the last
//    referencing record/closure (including draining orphan subtrees) lets
//    go — `refs` counts CallStates, HopCtxs and scheduled retry/static
//    closures.

Cluster::Cluster(sim::Simulation& sim, const Application& app,
                 std::uint64_t seed)
    : sim_(sim), app_(app), demand_rng_(seed, "cluster.demand." + app.name()),
      retry_rng_(seed, "cluster.retry." + app.name()) {
  services_.reserve(app.service_count());
  for (std::size_t i = 0; i < app.service_count(); ++i) {
    services_.push_back(std::make_unique<Service>(
        sim_, app.service(static_cast<ServiceId>(i)),
        static_cast<ServiceId>(i), &bus_));
  }
  RegisterGauges();
  // Residual-cost table for the deadline shedder: suffix sums of the mean
  // hop demands, plus the messages still to travel — from hop h's arrival, a
  // chain of n hops has (n-1-h) calls down, (n-h) replies up (incl. the
  // client's), i.e. 2n-h-1 messages left of the full request's 2n.
  residual_costs_.resize(app.request_type_count());
  for (std::size_t t = 0; t < app.request_type_count(); ++t) {
    const auto& hops = app.request_type(static_cast<RequestTypeId>(t)).hops;
    auto& per_hop = residual_costs_[t];
    per_hop.resize(hops.size());
    double cpu = 0;
    for (std::size_t h = hops.size(); h-- > 0;) {
      cpu += static_cast<double>(hops[h].cpu_demand + hops[h].post_demand);
      per_hop[h].cpu_mean = cpu;
      per_hop[h].messages =
          static_cast<double>(2 * hops.size() - h - 1);
    }
  }
}

void Cluster::RegisterGauges() {
  // Callback gauges cost the instrumented code nothing: the registry reads
  // them only when a monitor samples or a tool snapshots. These are the
  // values the polling observers (CloudWatch monitor, IDS saturation rule)
  // used to pull out of Cluster/Service directly.
  auto& m = bus_.metrics();
  m.Gauge("gateway.bytes",
          [this] { return static_cast<double>(gateway_bytes_); });
  m.Gauge("cluster.submitted",
          [this] { return static_cast<double>(next_request_id_); });
  m.Gauge("cluster.completed",
          [this] { return static_cast<double>(completed_count_); });
  for (std::size_t o = 0; o < kOutcomeCount; ++o) {
    m.Gauge(std::string("cluster.outcome.") +
                ToString(static_cast<Outcome>(o)),
            [this, o] { return static_cast<double>(outcome_counts_[o]); });
  }
  for (std::size_t i = 0; i < services_.size(); ++i) {
    Service* svc = services_[i].get();
    const std::string prefix = "svc." + std::to_string(i) + ".";
    m.Gauge(prefix + "busy_core_us",
            [svc] { return static_cast<double>(svc->CumBusyCoreTime()); });
    m.Gauge(prefix + "queue_len",
            [svc] { return static_cast<double>(svc->queue_length()); });
    m.Gauge(prefix + "replicas",
            [svc] { return static_cast<double>(svc->replicas()); });
    m.Gauge(prefix + "cores",
            [svc] { return static_cast<double>(svc->cores()); });
    m.Gauge(prefix + "rejected_arrivals",
            [svc] { return static_cast<double>(svc->rejected_arrivals()); });
    m.Gauge(prefix + "deadline_sheds",
            [svc] { return static_cast<double>(svc->deadline_sheds()); });
  }
  telemetry::RegisterEngineGauges(m, sim_);
}

Cluster::LifecycleStats Cluster::lifecycle_stats() const {
  return LifecycleStats{requests_.stats(), calls_.stats(), hops_.stats()};
}

SimDuration Cluster::DrawDemand(SimDuration mean, double multiplier) {
  const auto scaled = static_cast<SimDuration>(
      static_cast<double>(mean) * multiplier);
  if (scaled <= 0) return 0;
  switch (app_.service_time_dist()) {
    case ServiceTimeDist::kDeterministic:
      return scaled;
    case ServiceTimeDist::kExponential:
      return std::max<SimDuration>(1, demand_rng_.NextExpDuration(scaled));
  }
  return scaled;
}

SimDuration Cluster::BackoffDelay(const RpcPolicy& policy,
                                  std::int32_t attempt) {
  double delay = static_cast<double>(policy.backoff_base) *
                 std::pow(policy.backoff_multiplier,
                          static_cast<double>(attempt));
  if (policy.jitter > 0.0) {
    delay *= 1.0 + policy.jitter * (2.0 * retry_rng_.NextDouble() - 1.0);
  }
  return std::max<SimDuration>(0, static_cast<SimDuration>(std::llround(delay)));
}

void Cluster::Unref(sim::PoolHandle req_h) {
  ActiveRequest& req = requests_[req_h];
  if (--req.refs > 0) return;
  assert(req.terminal && "request record dropped before completing");
  // Drop caller-captured state now instead of at the slot's next reuse.
  req.on_complete = nullptr;
  requests_.Release(req_h);
}

std::uint64_t Cluster::Submit(RequestTypeId type, RequestClass cls, bool heavy,
                              std::uint64_t client_id,
                              CompletionCallback on_complete) {
  const auto& spec = app_.request_type(type);
  const sim::PoolHandle req_h = requests_.Acquire();
  ActiveRequest& req = requests_[req_h];
  req.id = next_request_id_++;
  req.type = type;
  req.cls = cls;
  req.heavy = heavy;
  req.terminal = false;
  req.refs = 0;
  req.client_id = client_id;
  req.start = sim_.Now();
  req.deadline = spec.deadline > 0 ? sim_.Now() + spec.deadline : 0;
  req.retries = 0;
  req.on_complete = std::move(on_complete);

  gateway_bytes_ += spec.request_bytes;
  if (bus_.submit().has_subscribers()) {
    bus_.submit().Publish(
        telemetry::RequestSubmit{type, cls, client_id, sim_.Now()});
  }

  const std::uint64_t rid = req.id;
  if (spec.is_static || spec.hops.empty()) {
    // Served by the gateway/CDN without touching the backend: constant small
    // latency, no backend load. (Sec VI "Limitations": static requests
    // escape the attack entirely.)
    Ref(req);
    sim_.After(NetLatency() * 2, [this, req_h] {
      CompleteWith(req_h, Outcome::kOk);
      Unref(req_h);
    });
    return rid;
  }

  IssueCall(req_h, 0, kInvalidService, 0, sim::PoolHandle{});
  return rid;
}

void Cluster::IssueCall(sim::PoolHandle req_h, std::uint32_t hop,
                        ServiceId caller, std::int32_t attempt,
                        sim::PoolHandle parent_hop) {
  ActiveRequest& req = requests_[req_h];
  const sim::PoolHandle call_h = calls_.Acquire();
  CallState& call = calls_[call_h];
  call.req = req_h;
  call.parent_hop = parent_hop;
  call.hop = hop;
  call.attempt = attempt;
  call.caller = caller;
  call.sent = false;
  call.deadline_limited = false;
  call.gated = false;
  call.issued_at = sim_.Now();
  call.timeout = sim::EventHandle{};
  Ref(req);

  // End-to-end deadline gate: no budget left, fail without sending.
  if (req.deadline > 0 && sim_.Now() >= req.deadline) {
    RejectCall(call_h, caller, Outcome::kDeadlineExceeded);
    return;
  }

  const Hop& h = app_.request_type(req.type).hops[hop];
  Service& callee = service(h.service);

  // Circuit breaker fast-fail: no network round trip, no load on the callee.
  if (!callee.BreakerAllows(caller)) {
    RejectCall(call_h, caller, Outcome::kRejected);
    return;
  }

  // Caller-side degradation gate: the bulkhead quota and adaptive limit on
  // this (caller → callee) edge. Like the breaker, rejection is local — no
  // network round trip, no load on the callee — and retryable per policy.
  if (caller != kInvalidService && service(caller).degradation_enabled()) {
    if (service(caller).AdmitDownstreamCall(h.service) !=
        Service::DownstreamGate::kAdmitted) {
      RejectCall(call_h, caller, Outcome::kRejected);
      return;
    }
    call.gated = true;
  }

  call.sent = true;
  // Per-attempt timeout, truncated to the remaining deadline budget
  // (deadline propagation: downstream hops inherit the shrinking budget).
  const RpcPolicy& policy = app_.rpc_policy(req.type, hop);
  SimDuration timeout = policy.timeout;
  if (req.deadline > 0) {
    const SimDuration remaining = req.deadline - sim_.Now();
    if (timeout == 0 || remaining < timeout) {
      timeout = remaining;
      call.deadline_limited = true;
    }
  }
  if (timeout > 0) {
    // Timeout guards are the engine's churn profile: almost every attempt
    // completes in time and cancels this. Being far out, it lands in the
    // timing wheel, where that cancel is O(1) instead of a dead heap entry.
    call.timeout = sim_.After(timeout, [this, call_h] {
      const CallState* c = calls_.Get(call_h);
      if (c == nullptr) return;  // already resolved
      ResolveCall(call_h, c->deadline_limited ? Outcome::kDeadlineExceeded
                                              : Outcome::kTimeout);
    });
  }

  const sim::PoolHandle hop_h = hops_.Acquire();
  HopCtx& ctx = hops_[hop_h];
  ctx.req = req_h;
  ctx.call = call_h;
  ctx.hop = hop;
  ctx.arrived = 0;
  ctx.slot_granted = 0;
  Ref(req);
  sim_.After(NetLatency(), [this, hop_h] { CallArrives(hop_h); });
}

void Cluster::RejectCall(sim::PoolHandle call_h, ServiceId caller,
                         Outcome o) {
  // In place when the zero-delay rejection would fire next anyway. IssueCall
  // is the last thing its callback does, with two exceptions. Inside
  // FinishBurst's `done`, the caller's queued CPU work starts afterwards, so
  // that queue must be empty (as in Service::ReleaseSlot). After Submit
  // (hop 0, the client's call) its caller may act, so hop 0 stays an event.
  if (caller != kInvalidService && service(caller).cpu_queue_length() == 0 &&
      sim_.ZeroDelayFiresNext()) {
    ResolveCall(call_h, o);
  } else {
    sim_.After(0, [this, call_h, o] { ResolveCall(call_h, o); });
  }
}

void Cluster::ResolveCall(sim::PoolHandle call_h, Outcome o) {
  CallState* call = calls_.Get(call_h);
  if (call == nullptr) return;  // late reply of a timed-out (orphan) attempt
  call->timeout.Cancel();
  const sim::PoolHandle req_h = call->req;
  const sim::PoolHandle parent_hop = call->parent_hop;
  const std::uint32_t hop = call->hop;
  const std::int32_t attempt = call->attempt;
  const ServiceId caller = call->caller;
  const bool sent = call->sent;
  const bool gated = call->gated;
  const SimTime issued_at = call->issued_at;
  // Releasing the slot is what marks the attempt resolved: the timeout, the
  // reply and the rejection race here, and every racer after the first now
  // holds a stale handle.
  calls_.Release(call_h);

  ActiveRequest& req = requests_[req_h];
  const Hop& h = app_.request_type(req.type).hops[hop];
  const RpcPolicy& policy = app_.rpc_policy(req.type, hop);
  if (sent) {
    service(h.service).ReportCallerOutcome(caller, o == Outcome::kOk);
  }
  if (gated) {
    // Uncharge the caller's per-downstream gate before any retry re-charges
    // it, and feed the limiter this attempt's RTT sample.
    service(caller).EndDownstreamCall(h.service, sim_.Now() - issued_at,
                                      o == Outcome::kOk, policy.nominal_rtt);
  }
  if (o == Outcome::kOk) {
    ContinueAfterCall(req_h, parent_hop, Outcome::kOk);
    Unref(req_h);
    return;
  }
  // Retry decision. A spent deadline can never be retried into.
  if (o != Outcome::kDeadlineExceeded && attempt < policy.max_retries) {
    ++req.retries;
    const SimDuration delay = BackoffDelay(policy, attempt);
    Ref(req);  // kept alive by the scheduled retry
    // Backoff delays are long on the event-time scale, so the wheel parks
    // them until their level expires instead of sifting the heap.
    sim_.After(delay,
               [this, req_h, hop, caller, next = attempt + 1, parent_hop] {
                 IssueCall(req_h, hop, caller, next, parent_hop);
                 Unref(req_h);
               });
    Unref(req_h);
    return;
  }
  ContinueAfterCall(req_h, parent_hop, o);
  Unref(req_h);
}

void Cluster::ContinueAfterCall(sim::PoolHandle req_h,
                                sim::PoolHandle parent_hop, Outcome o) {
  if (!parent_hop) {
    // Hop-0 edge: the outcome reaches the client.
    CompleteWith(req_h, o);
    return;
  }
  if (o != Outcome::kOk) {
    // Downstream gave up: skip the post-reply burst, release the slot and
    // propagate the error upstream.
    EndHop(parent_hop, o);
    return;
  }
  HopCtx& ctx = hops_[parent_hop];
  ActiveRequest& req = requests_[req_h];
  const auto& spec = app_.request_type(req.type);
  const Hop& h = spec.hops[ctx.hop];
  const double mult = req.heavy ? spec.heavy_multiplier : 1.0;
  service(h.service).RunCpu(
      DrawDemand(h.post_demand, mult),
      [this, parent_hop] { EndHop(parent_hop, Outcome::kOk); });
}

void Cluster::CallArrives(sim::PoolHandle hop_h) {
  HopCtx& ctx = hops_[hop_h];
  const sim::PoolHandle req_h = ctx.req;
  ActiveRequest& req = requests_[req_h];
  ctx.arrived = sim_.Now();
  Service& svc = service(app_.request_type(req.type).hops[ctx.hop].service);
  // Deadline-aware shedding: refuse doomed work BEFORE it consumes a thread
  // slot. The error reply drains the upstream subtree instead of letting it
  // block on a request that cannot finish in time anyway.
  const DeadlineShedSpec& shed = svc.spec().deadline_shed;
  if (shed.enabled && req.deadline > 0 &&
      ShouldShedForDeadline(req, ctx.hop, shed)) {
    svc.NoteDeadlineShed();
    const sim::PoolHandle call_h = ctx.call;
    sim_.After(NetLatency(), [this, call_h] {
      ResolveCall(call_h, Outcome::kDeadlineExceeded);
    });
    hops_.Release(hop_h);
    Unref(req_h);
    return;
  }
  if (!svc.AcquireSlot([this, hop_h] { OnSlotGranted(hop_h); })) {
    // Load shed: bounded arrival queue is full; the rejection response
    // travels back to the caller immediately.
    const sim::PoolHandle call_h = ctx.call;
    sim_.After(NetLatency(), [this, call_h] {
      ResolveCall(call_h, Outcome::kRejected);
    });
    hops_.Release(hop_h);
    Unref(req_h);
  }
}

bool Cluster::ShouldShedForDeadline(const ActiveRequest& req,
                                    std::uint32_t hop,
                                    const DeadlineShedSpec& shed) const {
  const auto& spec = app_.request_type(req.type);
  const ResidualCost& rc =
      residual_costs_[static_cast<std::size_t>(req.type)][hop];
  const double mult = req.heavy ? spec.heavy_multiplier : 1.0;
  // Expected-value feasibility estimate: mean residual CPU (queueing
  // excluded — margin is the knob that absorbs it) plus the network
  // messages still to pay at the app's per-message latency.
  const double expected =
      mult * rc.cpu_mean +
      rc.messages * static_cast<double>(NetLatency());
  const double required =
      shed.margin * (1.0 + shed.depth_weight * static_cast<double>(hop)) *
      expected;
  return static_cast<double>(req.deadline - sim_.Now()) < required;
}

std::int64_t Cluster::deadline_sheds() const {
  std::int64_t total = 0;
  for (const auto& svc : services_) total += svc->deadline_sheds();
  return total;
}

std::string Cluster::DrainInvariantsBroken() const {
  std::string out;
  const auto fail = [&out](const std::string& msg) {
    out += msg;
    out += '\n';
  };
  if (completed_count_ != next_request_id_) {
    fail("requests not conserved: " + std::to_string(next_request_id_) +
         " admitted vs " + std::to_string(completed_count_) + " completed");
  }
  std::uint64_t by_outcome = 0;
  for (const auto c : outcome_counts_) by_outcome += c;
  if (by_outcome != completed_count_) {
    fail("outcome counts sum to " + std::to_string(by_outcome) + ", not " +
         std::to_string(completed_count_));
  }
  const LifecycleStats pools = lifecycle_stats();
  const auto pool_check = [&fail](const char* name,
                                  const sim::SlabPoolStats& s) {
    if (s.live != 0) {
      fail(std::string("leaked ") + name + " slots: " +
           std::to_string(s.live));
    }
  };
  pool_check("ActiveRequest", pools.requests);
  pool_check("CallState", pools.calls);
  pool_check("HopCtx", pools.hops);
  for (const auto& svc : services_) out += svc->IdleInvariantsBroken();
  return out;
}

void Cluster::OnSlotGranted(sim::PoolHandle hop_h) {
  HopCtx& ctx = hops_[hop_h];
  ctx.slot_granted = sim_.Now();
  ActiveRequest& req = requests_[ctx.req];
  const auto& spec = app_.request_type(req.type);
  const Hop& h = spec.hops[ctx.hop];
  const double mult = req.heavy ? spec.heavy_multiplier : 1.0;
  const bool last = (ctx.hop + 1 == spec.hops.size());
  // The last hop has no downstream call: fold pre+post into one burst.
  const SimDuration demand =
      last ? DrawDemand(h.cpu_demand + h.post_demand, mult)
           : DrawDemand(h.cpu_demand, mult);
  service(h.service).RunCpu(demand, [this, hop_h] { AfterPreCpu(hop_h); });
}

void Cluster::AfterPreCpu(sim::PoolHandle hop_h) {
  HopCtx& ctx = hops_[hop_h];
  const sim::PoolHandle req_h = ctx.req;
  const auto& spec = app_.request_type(requests_[req_h].type);
  if (ctx.hop + 1 < spec.hops.size()) {
    // Synchronous downstream call; this hop's slot stays held. The edge's
    // outcome comes back through ContinueAfterCall with us as parent.
    IssueCall(req_h, ctx.hop + 1, spec.hops[ctx.hop].service, 0, hop_h);
  } else {
    EndHop(hop_h, Outcome::kOk);
  }
}

void Cluster::EmitSpan(const HopCtx& ctx, const ActiveRequest& req) {
  if (!bus_.span().has_subscribers()) return;
  const auto& spec = app_.request_type(req.type);
  SpanEvent span;
  span.request_id = req.id;
  span.type = req.type;
  span.cls = req.cls;
  span.service = spec.hops[ctx.hop].service;
  span.hop_index = ctx.hop;
  span.arrived = ctx.arrived;
  span.slot_granted = ctx.slot_granted;
  span.finished = sim_.Now();
  bus_.span().Publish(span);
}

void Cluster::EndHop(sim::PoolHandle hop_h, Outcome o) {
  HopCtx& ctx = hops_[hop_h];
  const sim::PoolHandle req_h = ctx.req;
  ActiveRequest& req = requests_[req_h];
  const auto& spec = app_.request_type(req.type);
  // A waiter's grant handed back here would have been the next event, so it
  // runs last: after the reply below takes its sequence number, as it did
  // when the grant was queued first and fired after this callback.
  sim::InplaceFunction grant =
      service(spec.hops[ctx.hop].service).ReleaseSlot();
  EmitSpan(ctx, req);
  // The reply travels back over the network, then races the caller's
  // timeout inside ResolveCall.
  const sim::PoolHandle call_h = ctx.call;
  sim_.After(NetLatency(), [this, call_h, o] { ResolveCall(call_h, o); });
  hops_.Release(hop_h);
  Unref(req_h);
  if (grant) grant();
}

void Cluster::CompleteWith(sim::PoolHandle req_h, Outcome o) {
  ActiveRequest& req = requests_[req_h];
  // Exactly-one-terminal-outcome invariant: the reply, timeout and
  // rejection paths all funnel here, and none may fire twice for one
  // request.
  assert(!req.terminal && "request completed twice");
  if (req.terminal) return;
  req.terminal = true;
  const auto& spec = app_.request_type(req.type);
  if (o == Outcome::kOk) gateway_bytes_ += spec.response_bytes;
  ++completed_count_;
  ++outcome_counts_[static_cast<std::size_t>(o)];
  CompletionRecord rec;
  rec.request_id = req.id;
  rec.type = req.type;
  rec.cls = req.cls;
  rec.heavy = req.heavy;
  rec.client_id = req.client_id;
  rec.start = req.start;
  rec.end = sim_.Now();
  rec.outcome = o;
  rec.retries = req.retries;
  // Bus subscribers first (in registration order), the per-request callback
  // last — the ordering contract the old listener list established.
  bus_.completion().Publish(rec);
  if (req.on_complete) req.on_complete(rec);
}

}  // namespace grunt::microsvc
