#include "microsvc/cluster.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace grunt::microsvc
