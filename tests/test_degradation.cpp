// Graceful-degradation layer: per-downstream bulkheads, the adaptive
// concurrency limiter's AIMD dynamics, deadline-aware shedding (including
// its deepest-first preference), and the end-of-run drain invariants every
// mechanism must preserve. All topologies use deterministic service times so
// admission decisions and shed instants can be asserted exactly.

#include <gtest/gtest.h>

#include "fixtures.h"
#include "microsvc/cluster.h"
#include "microsvc/service.h"

namespace grunt::microsvc {
namespace {

using grunt::testing::Svc;
using grunt::testing::Type;

/// caller(hop 0) -> worker(hop 1) with a configurable caller-side gate.
Application GatedTwoHopApp(const ServiceSpec& caller_gate,
                           SimDuration worker_demand = Ms(50),
                           SimDuration deadline = 0,
                           RpcPolicy edge_policy = {},
                           double heavy_multiplier = 1.6) {
  Application::Builder b;
  b.SetName("gated").SetServiceTimeDist(ServiceTimeDist::kDeterministic)
      .SetNetLatency(Us(200));
  ServiceSpec um = caller_gate;
  um.name = "um";
  um.threads_per_replica = 32;
  um.cores_per_replica = 8;
  const ServiceId caller = b.AddService(um);
  const ServiceId worker = b.AddService(Svc("worker", 32, 8));
  auto t = Type("t", {{caller, Us(100), 0}, {worker, worker_demand, 0}},
                heavy_multiplier);
  t.deadline = deadline;
  t.hops[1].rpc = edge_policy;
  b.AddRequestType(t);
  return std::move(b).Build();
}

TEST(Degradation, BulkheadCapsInFlightCallsPerDownstream) {
  ServiceSpec gate;
  gate.bulkhead_per_downstream = 2;
  const Application app = GatedTwoHopApp(gate);
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  for (int i = 0; i < 5; ++i) {
    cluster.Submit(0, RequestClass::kLegit, false, 1);
  }
  sim.RunAll();
  // Two calls fit the quota and complete; the other three fast-fail at the
  // caller without ever loading the worker.
  EXPECT_EQ(cluster.ok_count(), 2u);
  EXPECT_EQ(cluster.outcome_count(Outcome::kRejected), 3u);
  EXPECT_EQ(cluster.service(0).bulkhead_rejections(), 3);
  EXPECT_EQ(cluster.service(1).completed_bursts(), 2);
  EXPECT_EQ(cluster.service(0).downstream_in_flight(1), 0);
  EXPECT_EQ(cluster.DrainInvariantsBroken(), "");
}

TEST(Degradation, BulkheadRejectionIsRetryableAndUnchargesTheGate) {
  // Quota 1; the second request's first attempt is bulkhead-rejected, but
  // one retry (backoff 60ms > the 50ms occupancy) finds the gate free.
  ServiceSpec gate;
  gate.bulkhead_per_downstream = 1;
  RpcPolicy p;
  p.max_retries = 1;
  p.backoff_base = Ms(60);
  p.backoff_multiplier = 1.0;
  const Application app = GatedTwoHopApp(gate, Ms(50), 0, p);
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  CompletionRecord second;
  cluster.Submit(0, RequestClass::kLegit, false, 1);
  cluster.Submit(0, RequestClass::kLegit, false, 2,
                 [&](const CompletionRecord& r) { second = r; });
  sim.RunAll();
  EXPECT_EQ(cluster.ok_count(), 2u);
  EXPECT_EQ(second.outcome, Outcome::kOk);
  EXPECT_EQ(second.retries, 1);
  EXPECT_EQ(cluster.service(0).bulkhead_rejections(), 1);
  EXPECT_EQ(cluster.DrainInvariantsBroken(), "");
}

TEST(Degradation, BulkheadQuotaScalesWithLiveReplicas) {
  ServiceSpec gate;
  gate.bulkhead_per_downstream = 2;
  gate.initial_replicas = 2;
  gate.max_replicas = 16;
  const Application app = GatedTwoHopApp(gate);
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  for (int i = 0; i < 6; ++i) {
    cluster.Submit(0, RequestClass::kLegit, false, 1);
  }
  sim.RunAll();
  // 2 replicas x quota 2 = 4 concurrent calls into the worker.
  EXPECT_EQ(cluster.ok_count(), 4u);
  EXPECT_EQ(cluster.outcome_count(Outcome::kRejected), 2u);
  EXPECT_EQ(cluster.DrainInvariantsBroken(), "");
}

TEST(Degradation, AdaptiveLimiterAimdDynamics) {
  sim::Simulation sim;
  ServiceSpec spec;
  spec.name = "caller";
  spec.adaptive_limit.enabled = true;
  spec.adaptive_limit.min_limit = 2;
  spec.adaptive_limit.max_limit = 8;
  spec.adaptive_limit.rtt_tolerance = 2.0;
  spec.adaptive_limit.decrease_factor = 0.5;
  Service svc(sim, spec, 0);
  const ServiceId down = 3;
  EXPECT_TRUE(svc.degradation_enabled());
  EXPECT_DOUBLE_EQ(svc.adaptive_limit_now(down), 8.0);

  // Teach the no-load floor with one good sample (rtt 100us).
  ASSERT_EQ(svc.AdmitDownstreamCall(down), Service::DownstreamGate::kAdmitted);
  svc.EndDownstreamCall(down, Us(100), true, 0);
  EXPECT_DOUBLE_EQ(svc.adaptive_limit_now(down), 8.0);  // capped at max

  // Congested samples (rtt > 2 x floor) halve the limit down to min_limit.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(svc.AdmitDownstreamCall(down),
              Service::DownstreamGate::kAdmitted);
    svc.EndDownstreamCall(down, Us(500), true, 0);
  }
  EXPECT_DOUBLE_EQ(svc.adaptive_limit_now(down), 2.0);  // 8 -> 4 -> 2 -> 2

  // The clamp binds: only 2 calls may be in flight now.
  ASSERT_EQ(svc.AdmitDownstreamCall(down), Service::DownstreamGate::kAdmitted);
  ASSERT_EQ(svc.AdmitDownstreamCall(down), Service::DownstreamGate::kAdmitted);
  EXPECT_EQ(svc.AdmitDownstreamCall(down),
            Service::DownstreamGate::kLimitClamped);
  EXPECT_EQ(svc.limiter_rejections(), 1);
  svc.EndDownstreamCall(down, Us(150), true, 0);  // good: +1/limit
  svc.EndDownstreamCall(down, Us(150), true, 0);
  EXPECT_GT(svc.adaptive_limit_now(down), 2.0);  // additive recovery
  EXPECT_EQ(svc.downstream_in_flight(down), 0);

  // A failed call is congestion regardless of its RTT.
  ASSERT_EQ(svc.AdmitDownstreamCall(down), Service::DownstreamGate::kAdmitted);
  const double before = svc.adaptive_limit_now(down);
  svc.EndDownstreamCall(down, Us(100), false, 0);
  EXPECT_LT(svc.adaptive_limit_now(down), before);
}

TEST(Degradation, NominalRttOverridesLearnedFloor) {
  sim::Simulation sim;
  ServiceSpec spec;
  spec.name = "caller";
  spec.adaptive_limit.enabled = true;
  spec.adaptive_limit.min_limit = 1;
  spec.adaptive_limit.max_limit = 4;
  spec.adaptive_limit.rtt_tolerance = 2.0;
  Service svc(sim, spec, 0);
  // Learned floor would be 100us, making 500us congested — but the policy's
  // nominal RTT of 1ms says 500us is healthy.
  ASSERT_EQ(svc.AdmitDownstreamCall(1), Service::DownstreamGate::kAdmitted);
  svc.EndDownstreamCall(1, Us(100), true, Ms(1));
  ASSERT_EQ(svc.AdmitDownstreamCall(1), Service::DownstreamGate::kAdmitted);
  svc.EndDownstreamCall(1, Us(500), true, Ms(1));
  EXPECT_DOUBLE_EQ(svc.adaptive_limit_now(1), 4.0);  // never decreased
}

TEST(Degradation, DeadlineShedDropsDoomedWorkBeforeItConsumesASlot) {
  // Budget 10ms; by the time the 20ms worker hop arrives (~8.4ms) the
  // residual cost can't fit. With shedding the worker never burns a burst;
  // without it the doomed attempt runs to completion as orphan work.
  ServiceSpec shedding;
  shedding.deadline_shed.enabled = true;
  shedding.deadline_shed.margin = 1.0;
  Application::Builder b;
  b.SetName("shed").SetServiceTimeDist(ServiceTimeDist::kDeterministic)
      .SetNetLatency(Us(200));
  const ServiceId s0 = b.AddService(Svc("s0", 8, 2));
  ServiceSpec w = Svc("w", 8, 2);
  w.deadline_shed = shedding.deadline_shed;
  const ServiceId s1 = b.AddService(w);
  auto t = Type("t", {{s0, Ms(8), 0}, {s1, Ms(20), 0}});
  t.deadline = Ms(10);
  b.AddRequestType(t);
  const Application app = std::move(b).Build();

  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  CompletionRecord rec;
  cluster.Submit(0, RequestClass::kLegit, false, 1,
                 [&](const CompletionRecord& r) { rec = r; });
  sim.RunAll();
  EXPECT_EQ(rec.outcome, Outcome::kDeadlineExceeded);
  EXPECT_LT(rec.end, Ms(10));  // shed resolves BEFORE the deadline timer
  EXPECT_EQ(cluster.service(s1).deadline_sheds(), 1);
  EXPECT_EQ(cluster.service(s1).completed_bursts(), 0);  // no orphan work
  EXPECT_EQ(cluster.deadline_sheds(), 1);
  EXPECT_EQ(cluster.DrainInvariantsBroken(), "");
}

TEST(Degradation, WithoutShedDoomedWorkDrainsAsOrphan) {
  // Control for the test above: same topology, shedding off. The request
  // still dies at its deadline, but the worker burns the full 20ms burst.
  Application::Builder b;
  b.SetName("noshed").SetServiceTimeDist(ServiceTimeDist::kDeterministic)
      .SetNetLatency(Us(200));
  const ServiceId s0 = b.AddService(Svc("s0", 8, 2));
  const ServiceId s1 = b.AddService(Svc("w", 8, 2));
  auto t = Type("t", {{s0, Ms(8), 0}, {s1, Ms(20), 0}});
  t.deadline = Ms(10);
  b.AddRequestType(t);
  const Application app = std::move(b).Build();

  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  CompletionRecord rec;
  cluster.Submit(0, RequestClass::kLegit, false, 1,
                 [&](const CompletionRecord& r) { rec = r; });
  sim.RunAll();
  EXPECT_EQ(rec.outcome, Outcome::kDeadlineExceeded);
  EXPECT_EQ(rec.end, Ms(10));
  EXPECT_EQ(cluster.service(s1).completed_bursts(), 1);  // orphan drained
  EXPECT_EQ(cluster.deadline_sheds(), 0);
  EXPECT_EQ(cluster.DrainInvariantsBroken(), "");
}

TEST(Degradation, DepthWeightShedsDeepestWorkFirst) {
  // Same chain, same budget: with depth_weight 0 every hop is feasible and
  // the request completes. depth_weight 1.6 inflates required slack with
  // depth — hop 1 still clears (2.6 x 10.8ms < 28.6ms remaining) but hop 2
  // does not (4.2 x 5.6ms > 23.4ms remaining), so the DEEPEST hop sheds.
  const auto build = [](double depth_weight) {
    Application::Builder b;
    b.SetName("depth").SetServiceTimeDist(ServiceTimeDist::kDeterministic)
        .SetNetLatency(Us(200));
    ServiceSpec spec0 = Svc("s0", 8, 2);
    ServiceSpec spec1 = Svc("s1", 8, 2);
    ServiceSpec spec2 = Svc("s2", 8, 2);
    for (ServiceSpec* s : {&spec0, &spec1, &spec2}) {
      s->deadline_shed.enabled = true;
      s->deadline_shed.margin = 1.0;
      s->deadline_shed.depth_weight = depth_weight;
    }
    b.AddService(spec0);
    b.AddService(spec1);
    b.AddService(spec2);
    auto t = Type("t", {{0, Ms(1), 0}, {1, Ms(5), 0}, {2, Ms(5), 0}});
    t.deadline = Ms(30);
    b.AddRequestType(t);
    return std::move(b).Build();
  };

  for (const double dw : {0.0, 1.6}) {
    sim::Simulation sim;
    const Application app = build(dw);
    Cluster cluster(sim, app, 1);
    CompletionRecord rec;
    cluster.Submit(0, RequestClass::kLegit, false, 1,
                   [&](const CompletionRecord& r) { rec = r; });
    sim.RunAll();
    if (dw == 0.0) {
      EXPECT_EQ(rec.outcome, Outcome::kOk);
      EXPECT_EQ(cluster.deadline_sheds(), 0);
    } else {
      EXPECT_EQ(rec.outcome, Outcome::kDeadlineExceeded);
      EXPECT_EQ(cluster.service(1).deadline_sheds(), 0);
      EXPECT_EQ(cluster.service(2).deadline_sheds(), 1);  // deepest hop
    }
    EXPECT_EQ(cluster.DrainInvariantsBroken(), "");
  }
}

TEST(Degradation, AdaptiveLimiterClampsPileUpOnASlowedEdge) {
  // End-to-end: a caller fans many concurrent heavy requests (50x demand)
  // onto one edge. The limiter learns the no-load RTT from light requests
  // during the warm-up, then clamps the pile-up once RTTs blow past
  // tolerance.
  ServiceSpec gate;
  gate.adaptive_limit.enabled = true;
  gate.adaptive_limit.min_limit = 2;
  gate.adaptive_limit.max_limit = 64;
  gate.adaptive_limit.rtt_tolerance = 3.0;
  gate.adaptive_limit.decrease_factor = 0.5;
  const Application app = GatedTwoHopApp(gate, Ms(2), 0, {}, 50.0);
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  // Warm-up at no load: sequential requests teach the ~2.8ms floor.
  for (int i = 0; i < 5; ++i) {
    sim.At(Ms(10 * i), [&] { cluster.Submit(0, RequestClass::kLegit, false, 1); });
  }
  // Slam the edge with a concurrent burst of heavy requests, 100 ms each
  // on the worker. The burst itself is admitted (limit starts at max), but
  // its congested RTTs collapse the limit, so a second wave bounces off the
  // clamp.
  for (int i = 0; i < 40; ++i) {
    sim.At(Ms(61), [&] { cluster.Submit(0, RequestClass::kLegit, true, 2); });
  }
  for (int i = 0; i < 10; ++i) {
    sim.At(Ms(200), [&] { cluster.Submit(0, RequestClass::kLegit, false, 3); });
  }
  sim.RunAll();
  // The second wave was clamped off instead of piling onto the edge.
  EXPECT_GT(cluster.service(0).limiter_rejections(), 0);
  EXPECT_LT(cluster.service(0).adaptive_limit_now(1), 64.0);
  EXPECT_EQ(cluster.outcome_count(Outcome::kRejected),
            static_cast<std::uint64_t>(cluster.service(0).limiter_rejections()));
  EXPECT_EQ(cluster.DrainInvariantsBroken(), "");
}

TEST(Degradation, DrainInvariantCheckerReportsLeaks) {
  // Sanity-check the checker itself: mid-flight, invariants ARE broken
  // (live pool handles, held slots) — the report must say so.
  const Application app = GatedTwoHopApp(ServiceSpec{});
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  cluster.Submit(0, RequestClass::kLegit, false, 1);
  sim.RunUntil(Ms(10));  // worker burst (50ms) still running
  EXPECT_NE(cluster.DrainInvariantsBroken(), "");
  sim.RunAll();
  EXPECT_EQ(cluster.DrainInvariantsBroken(), "");
}

}  // namespace
}  // namespace grunt::microsvc
