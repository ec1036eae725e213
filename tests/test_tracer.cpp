#include "trace/tracer.h"

#include <gtest/gtest.h>

#include "fixtures.h"
#include "microsvc/cluster.h"

namespace grunt::trace {
namespace {

using grunt::testing::SingleChainApp;

TEST(Tracer, AssemblesSpansIntoCompleteTraces) {
  sim::Simulation sim;
  const auto app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  Tracer tracer;
  tracer.Attach(cluster.telemetry());
  std::uint64_t rid = cluster.Submit(0, microsvc::RequestClass::kLegit,
                                     false, 1);
  sim.RunAll();
  EXPECT_EQ(tracer.span_count(), 3u);
  const RequestTrace* t = tracer.Find(rid);
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->complete());
  ASSERT_EQ(t->hops.size(), 3u);
  // Hops arrive in path order with sane timestamps.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(t->hops[i].hop_index, i);
    EXPECT_LE(t->hops[i].arrived, t->hops[i].slot_granted);
    EXPECT_LT(t->hops[i].slot_granted, t->hops[i].finished);
  }
  EXPECT_LT(t->hops[0].arrived, t->hops[1].arrived);
  // Hop 0's span closes last (it replies to the client).
  EXPECT_GT(t->hops[0].finished, t->hops[2].finished);
  EXPECT_EQ(tracer.CompletedTraces().size(), 1u);
}

TEST(Tracer, ArrivalRateCountsWindowedSpans) {
  sim::Simulation sim;
  const auto app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  Tracer tracer;
  tracer.Attach(cluster.telemetry());
  for (int i = 0; i < 10; ++i) {
    sim.At(Sec(i), [&] {
      cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
    });
  }
  sim.RunAll();
  const auto s1 = *app.FindService("s1");
  EXPECT_NEAR(tracer.ArrivalRate(s1, 0, Sec(10)), 1.0, 0.01);
  EXPECT_DOUBLE_EQ(tracer.ArrivalRate(s1, Sec(100), Sec(110)), 0.0);
  EXPECT_DOUBLE_EQ(tracer.ArrivalRate(s1, Sec(10), Sec(10)), 0.0);
  tracer.Clear();
  EXPECT_EQ(tracer.CompletedTraces().size(), 0u);
}

TEST(Tracer, QueueWaitVisibleInSpansUnderContention) {
  sim::Simulation sim;
  const auto app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  Tracer tracer;
  tracer.Attach(cluster.telemetry());
  // 12 simultaneous requests vs s0's 8 slots: the last ones wait for slots.
  std::vector<std::uint64_t> rids;
  for (int i = 0; i < 12; ++i) {
    rids.push_back(cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1));
  }
  sim.RunAll();
  SimDuration max_wait = 0;
  for (auto rid : rids) {
    const RequestTrace* t = tracer.Find(rid);
    ASSERT_NE(t, nullptr);
    max_wait = std::max(max_wait, t->hops[0].queue_wait());
  }
  EXPECT_GT(max_wait, 0);
}

}  // namespace
}  // namespace grunt::trace
