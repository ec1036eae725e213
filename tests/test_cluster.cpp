#include "microsvc/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fixtures.h"

namespace grunt::microsvc {
namespace {

using grunt::testing::SingleChainApp;

TEST(Cluster, SingleRequestLatencyIsExactlyDemandsPlusNetwork) {
  sim::Simulation sim;
  const Application app = SingleChainApp();
  Cluster cluster(sim, app, 1);
  CompletionRecord rec;
  cluster.Submit(0, RequestClass::kLegit, false, 99,
                 [&](const CompletionRecord& r) { rec = r; });
  sim.RunAll();
  // CPU: 1 + 5 + (2 folded with post 0) + post(s1) 1 = 9 ms.
  // Network: 6 messages x 200 us = 1.2 ms.
  EXPECT_EQ(rec.end - rec.start, Ms(9) + Us(1200));
  EXPECT_EQ(rec.client_id, 99u);
  EXPECT_EQ(cluster.completed_count(), 1u);
  EXPECT_EQ(cluster.in_flight(), 0u);
}

TEST(Cluster, HeavyRequestScalesEveryCpuDemand) {
  sim::Simulation sim;
  const Application app = SingleChainApp();  // heavy_multiplier = 2.0
  Cluster cluster(sim, app, 1);
  CompletionRecord rec;
  cluster.Submit(0, RequestClass::kAttack, /*heavy=*/true, 1,
                 [&](const CompletionRecord& r) { rec = r; });
  sim.RunAll();
  EXPECT_EQ(rec.end - rec.start, Ms(18) + Us(1200));
  EXPECT_TRUE(rec.heavy);
  EXPECT_EQ(rec.cls, RequestClass::kAttack);
}

TEST(Cluster, UpstreamSlotsHeldDuringDownstreamWork) {
  sim::Simulation sim;
  const Application app = SingleChainApp();
  Cluster cluster(sim, app, 1);
  for (int i = 0; i < 4; ++i) {
    cluster.Submit(0, RequestClass::kLegit, false, 1);
  }
  sim.RunUntil(Ms(4));
  const auto s0 = *app.FindService("s0");
  const auto s1 = *app.FindService("s1");
  // All four requests are at s1 (2 on CPU, 2 queued for CPU) but every one
  // still holds its s0 thread slot: that is the RPC blocking semantics.
  EXPECT_EQ(cluster.service(s0).slots_in_use(), 4);
  EXPECT_EQ(cluster.service(s1).slots_in_use(), 4);
  EXPECT_EQ(cluster.service(s1).cpu_busy(), 2);
  sim.RunAll();
  EXPECT_EQ(cluster.service(s0).slots_in_use(), 0);
  EXPECT_EQ(cluster.service(s1).slots_in_use(), 0);
  EXPECT_EQ(cluster.completed_count(), 4u);
  EXPECT_EQ(cluster.DrainInvariantsBroken(), "");
}

TEST(Cluster, StaticTypeServedAtEdgeWithoutBackendLoad) {
  sim::Simulation sim;
  Application::Builder b;
  b.SetNetLatency(Us(300));
  const ServiceId s = b.AddService(grunt::testing::Svc("backend", 4, 1));
  RequestTypeSpec st;
  st.name = "asset";
  st.is_static = true;
  st.request_bytes = 100;
  st.response_bytes = 1000;
  b.AddRequestType(st);
  const Application app = std::move(b).Build();
  Cluster cluster(sim, app, 1);
  CompletionRecord rec;
  cluster.Submit(0, RequestClass::kLegit, false, 1,
                 [&](const CompletionRecord& r) { rec = r; });
  sim.RunAll();
  EXPECT_EQ(rec.end - rec.start, Us(600));  // pure edge round-trip
  EXPECT_EQ(cluster.service(s).completed_bursts(), 0);
  EXPECT_EQ(cluster.gateway_bytes(), 1100);
}

TEST(Cluster, GatewayBytesCountRequestAndResponse) {
  sim::Simulation sim;
  const Application app = SingleChainApp();
  Cluster cluster(sim, app, 1);
  const auto& spec = app.request_type(0);
  cluster.Submit(0, RequestClass::kLegit, false, 1);
  EXPECT_EQ(cluster.gateway_bytes(), spec.request_bytes);
  sim.RunAll();
  EXPECT_EQ(cluster.gateway_bytes(), spec.request_bytes + spec.response_bytes);
}

TEST(Cluster, BusObservesSubmitAndCompletion) {
  sim::Simulation sim;
  const Application app = SingleChainApp();
  Cluster cluster(sim, app, 1);
  int submits = 0, completions = 0;
  cluster.telemetry().submit().Subscribe(
      [&](const telemetry::RequestSubmit& e) {
        ++submits;
        EXPECT_EQ(e.type, 0);
        EXPECT_EQ(e.cls, RequestClass::kProbe);
        EXPECT_EQ(e.client_id, 5u);
      });
  cluster.telemetry().completion().Subscribe(
      [&](const CompletionRecord&) { ++completions; });
  cluster.Submit(0, RequestClass::kProbe, false, 5);
  sim.RunAll();
  EXPECT_EQ(submits, 1);
  EXPECT_EQ(completions, 1);
}

TEST(Cluster, SpanChannelCarriesEveryHopWithItsQueueWait) {
  sim::Simulation sim;
  const Application app = SingleChainApp();
  Cluster cluster(sim, app, 1);
  std::vector<SpanEvent> spans;
  cluster.telemetry().span().Subscribe(
      [&](const SpanEvent& e) { spans.push_back(e); });

  const std::uint64_t rid = cluster.Submit(0, RequestClass::kLegit, false, 1);
  sim.RunAll();
  // One span per hop, published as each hop replies upstream: the deepest
  // first, hop 0's last (it replies to the client).
  ASSERT_EQ(spans.size(), 3u);
  const std::vector<ServiceId> path = app.PathServices(0);
  for (std::size_t i = 0; i < 3; ++i) {
    const SpanEvent& hop = spans[2 - i];
    EXPECT_EQ(hop.request_id, rid);
    EXPECT_EQ(hop.hop_index, i);
    EXPECT_EQ(hop.service, path[i]);
    EXPECT_LE(hop.arrived, hop.slot_granted);
    EXPECT_LT(hop.slot_granted, hop.finished);
    if (i > 0) {
      EXPECT_LT(spans[3 - i].arrived, hop.arrived);  // path order
    }
  }
  EXPECT_GT(spans[2].finished, spans[1].finished);
  EXPECT_GT(spans[2].finished, spans[0].finished);

  // 12 simultaneous requests vs s0's 8 slots: the last ones wait for slots.
  spans.clear();
  for (int i = 0; i < 12; ++i) {
    cluster.Submit(0, RequestClass::kLegit, false, 1);
  }
  sim.RunAll();
  SimDuration max_wait = 0;
  std::size_t hop0_spans = 0;
  for (const SpanEvent& e : spans) {
    if (e.hop_index != 0) continue;
    ++hop0_spans;
    max_wait = std::max(max_wait, e.slot_granted - e.arrived);
  }
  EXPECT_EQ(hop0_spans, 12u);
  EXPECT_GT(max_wait, 0);
}

TEST(Cluster, ExponentialDistStillCompletesAndIsDeterministicPerSeed) {
  const Application app = SingleChainApp(ServiceTimeDist::kExponential);
  auto run = [&](std::uint64_t seed) {
    sim::Simulation sim;
    Cluster cluster(sim, app, seed);
    std::vector<SimDuration> rts;
    for (int i = 0; i < 50; ++i) {
      cluster.Submit(0, RequestClass::kLegit, false, 1,
                     [&](const CompletionRecord& r) {
                       rts.push_back(r.end - r.start);
                     });
    }
    sim.RunAll();
    return rts;
  };
  const auto r1 = run(11);
  const auto r2 = run(11);
  const auto r3 = run(12);
  EXPECT_EQ(r1, r2);
  EXPECT_NE(r1, r3);
  EXPECT_EQ(r1.size(), 50u);
}

// The zero-delay hand-offs that run in place (DESIGN §4.8) must keep the
// firing order of the After(0) events they replace. The two tests below pin
// the two rules no shipped app can show: every stage there has a nonzero
// demand, so the reordered events never tie.

// Cluster::EndHop runs a waiter's handed-back grant after the reply is
// scheduled. One thread serves a slow endpoint and a zero-demand one queued
// behind it: when the slow request ends, the waiter runs to its own reply in
// place, and the two replies tie. The slow request, whose reply was queued
// first, must complete first.
TEST(Cluster, HandedBackGrantRunsAfterTheReplyIsScheduled) {
  sim::Simulation sim;
  Application::Builder b;
  b.SetServiceTimeDist(ServiceTimeDist::kDeterministic).SetNetLatency(Us(200));
  const ServiceId s = b.AddService(grunt::testing::Svc("one-thread", 1, 1));
  b.AddRequestType(grunt::testing::Type("slow", {{s, Ms(5), 0}}));
  b.AddRequestType(grunt::testing::Type("free", {{s, 0, 0}}));
  const Application app = std::move(b).Build();
  Cluster cluster(sim, app, 1);
  const grunt::testing::CompletionLog log(cluster);
  cluster.Submit(0, RequestClass::kLegit, false, 1);
  sim.At(Ms(1), [&] { cluster.Submit(1, RequestClass::kLegit, false, 2); });
  sim.RunAll();
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records()[0].type, 0);
  EXPECT_EQ(log.records()[1].type, 1);
  EXPECT_EQ(log.records()[0].end, Us(5400));
  EXPECT_EQ(log.records()[1].end, Us(5400));
  EXPECT_EQ(cluster.DrainInvariantsBroken(), "");
}

// Cluster::RejectCall runs a rejection in place only when the caller's CPU
// queue is empty: FinishBurst starts queued work after the `done` that
// issued the call returns. Here the caller's bulkhead rejects the second
// call while a local burst waits for the caller's only core. That burst must
// start, and take its sequence number, before the rejection's reply is
// scheduled; the two then tie, so the burst's span precedes the rejected
// request's completion.
TEST(Cluster, RejectionWaitsForTheCallersQueuedCpuWork) {
  sim::Simulation sim;
  Application::Builder b;
  b.SetServiceTimeDist(ServiceTimeDist::kDeterministic).SetNetLatency(Us(200));
  auto caller_spec = grunt::testing::Svc("caller", 8, 1);
  caller_spec.bulkhead_per_downstream = 1;
  const ServiceId caller = b.AddService(caller_spec);
  const ServiceId callee = b.AddService(grunt::testing::Svc("callee", 8, 1));
  b.AddRequestType(
      grunt::testing::Type("call", {{caller, Ms(1), 0}, {callee, Ms(20), 0}}));
  // Its burst lasts one net latency: it ends as the rejection's reply lands.
  b.AddRequestType(grunt::testing::Type("local", {{caller, Us(200), 0}}));
  const Application app = std::move(b).Build();
  Cluster cluster(sim, app, 1);

  std::vector<std::string> seen;
  cluster.telemetry().span().Subscribe([&](const SpanEvent& e) {
    seen.push_back("span " + app.request_type(e.type).name + " @" +
                   std::to_string(e.finished));
  });
  cluster.telemetry().completion().Subscribe([&](const CompletionRecord& r) {
    seen.push_back(std::string("done ") + app.request_type(r.type).name +
                   " " + ToString(r.outcome) + " @" +
                   std::to_string(r.end));
  });
  // The first call holds the bulkhead's one slot for 20 ms; the second is
  // rejected when its 1 ms burst ends at 2.7 ms, with "local" queued.
  cluster.Submit(0, RequestClass::kLegit, false, 1);
  sim.At(Us(1500), [&] { cluster.Submit(0, RequestClass::kLegit, false, 2); });
  sim.At(Us(1600), [&] { cluster.Submit(1, RequestClass::kLegit, false, 3); });
  sim.RunUntil(Ms(3));
  EXPECT_EQ(seen, (std::vector<std::string>{"span call @2700",
                                            "span local @2900",
                                            "done call rejected @2900"}));
  sim.RunAll();
  EXPECT_EQ(cluster.DrainInvariantsBroken(), "");
}

}  // namespace
}  // namespace grunt::microsvc
