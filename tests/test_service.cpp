#include "microsvc/service.h"

#include <gtest/gtest.h>

#include "fixtures.h"

namespace grunt::microsvc {
namespace {

TEST(Service, GrantsSlotsUpToThreadCount) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 2, 1), 0);
  int granted = 0;
  for (int i = 0; i < 3; ++i) {
    svc.AcquireSlot([&] { ++granted; });
  }
  sim.RunAll();
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(svc.slots_in_use(), 2);
  EXPECT_EQ(svc.slots_waiting(), 1);
  EXPECT_EQ(svc.queue_length(), 3);
}

TEST(Service, ReleaseWakesWaitersInFifoOrder) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 1, 1), 0);
  std::vector<int> order;
  svc.AcquireSlot([&] { order.push_back(0); });
  svc.AcquireSlot([&] { order.push_back(1); });
  svc.AcquireSlot([&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0}));
  // Outside any callback the grant is always an event: nothing handed back.
  EXPECT_FALSE(svc.ReleaseSlot());
  sim.RunAll();
  EXPECT_FALSE(svc.ReleaseSlot());
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Service, CpuRunsFcfsOnLimitedCores) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 8, 2), 0);
  std::vector<std::pair<int, SimTime>> done;
  for (int i = 0; i < 4; ++i) {
    svc.RunCpu(Ms(10), [&, i] { done.emplace_back(i, sim.Now()); });
  }
  sim.RunAll();
  ASSERT_EQ(done.size(), 4u);
  // Two cores: bursts 0,1 finish at 10ms; 2,3 at 20ms.
  EXPECT_EQ(done[0].second, Ms(10));
  EXPECT_EQ(done[1].second, Ms(10));
  EXPECT_EQ(done[2].second, Ms(20));
  EXPECT_EQ(done[3].second, Ms(20));
  EXPECT_EQ(svc.completed_bursts(), 4);
}

// Unequal demands finish out of start order: the short burst frees its core
// first and the queued third burst takes over its slot while the long burst
// still runs. Each continuation runs once, at its own burst's completion.
TEST(Service, BurstsFinishingOutOfOrderKeepTheirContinuations) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 8, 2), 0);
  std::vector<std::pair<char, SimTime>> done;
  svc.RunCpu(Ms(30), [&] { done.emplace_back('L', sim.Now()); });
  svc.RunCpu(Ms(10), [&] { done.emplace_back('S', sim.Now()); });
  svc.RunCpu(Ms(5), [&] { done.emplace_back('Q', sim.Now()); });
  EXPECT_EQ(svc.cpu_busy(), 2);
  EXPECT_EQ(svc.cpu_queue_length(), 1);
  sim.RunAll();
  // Q starts when S frees its core at 10 ms and finishes 5 ms later, while
  // L, started first, finishes last.
  EXPECT_EQ(done, (std::vector<std::pair<char, SimTime>>{
                      {'S', Ms(10)}, {'Q', Ms(15)}, {'L', Ms(30)}}));
  EXPECT_EQ(svc.completed_bursts(), 3);
  EXPECT_EQ(svc.cpu_busy(), 0);
}

TEST(Service, ZeroDemandBurstCompletesImmediately) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 8, 1), 0);
  bool done = false;
  svc.RunCpu(0, [&] { done = true; });
  sim.RunAll();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.Now(), 0);
}

// Inside a one-shot callback with nothing else due, the zero-delay
// hand-offs run in place: before the call returns, with no event fired.
TEST(Service, HandOffsRunInPlaceWhenTheirEventWouldFireNext) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 1, 1), 0);
  std::vector<int> order;
  sim.At(Ms(1), [&] {
    svc.AcquireSlot([&] { order.push_back(1); });
    svc.RunCpu(0, [&] { order.push_back(2); });
    order.push_back(3);
  });
  EXPECT_EQ(sim.RunAll(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(svc.completed_bursts(), 1);
  EXPECT_EQ(svc.cpu_busy(), 0);
  EXPECT_EQ(svc.CumBusyCoreTime(), 0);
}

// With another event due at the same instant, each hand-off stays an event
// and fires after it, in scheduling order.
TEST(Service, HandOffsStayEventsWhenAnotherEventIsDueNow) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 1, 1), 0);
  std::vector<int> order;
  sim.At(Ms(1), [&] {
    svc.AcquireSlot([&] { order.push_back(1); });
    svc.RunCpu(0, [&] { order.push_back(2); });
    order.push_back(0);
  });
  sim.At(Ms(1), [&] { order.push_back(9); });
  EXPECT_EQ(sim.RunAll(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 9, 1, 2}));
}

// A zero-demand burst started inside a finishing burst's `done`, with CPU
// work queued, stays an event: it takes the freed core first, as before.
TEST(Service, ZeroDemandBurstStaysAnEventBehindQueuedCpu) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 8, 1), 0);
  std::vector<int> order;
  svc.RunCpu(Ms(10), [&] {
    svc.RunCpu(0, [&] { order.push_back(2); });
    order.push_back(1);
  });
  svc.RunCpu(Ms(10), [&] { order.push_back(3); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Ms(20));
}

// The released slot's waiter is handed back for the caller to run last,
// unless CPU work is queued: FinishBurst starts that after its callback.
TEST(Service, ReleaseHandsBackTheGrantOnlyWithNoCpuQueued) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 1, 1), 0);
  std::vector<int> order;
  svc.AcquireSlot([] {});
  svc.AcquireSlot([&] { order.push_back(1); });
  svc.AcquireSlot([&] { order.push_back(2); });
  sim.RunAll();
  bool handed_back = false;
  sim.At(Ms(1), [&] {
    sim::InplaceFunction grant = svc.ReleaseSlot();
    handed_back = static_cast<bool>(grant);
    order.push_back(0);
    if (grant) grant();
  });
  sim.RunAll();
  EXPECT_TRUE(handed_back);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));

  svc.RunCpu(Ms(10), [] {});
  svc.RunCpu(Ms(10), [] {});  // queued behind the first on the single core
  sim.At(Ms(2), [&] {
    handed_back = static_cast<bool>(svc.ReleaseSlot());
    order.push_back(0);
  });
  sim.RunUntil(Ms(2));
  EXPECT_FALSE(handed_back);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 2}));
  EXPECT_EQ(svc.slots_in_use(), 1);
}

TEST(Service, BusyIntegralMatchesWork) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 8, 2), 0);
  svc.RunCpu(Ms(10), [] {});
  svc.RunCpu(Ms(5), [] {});
  sim.RunAll();
  // Total core-time = 15ms regardless of parallelism.
  EXPECT_EQ(svc.CumBusyCoreTime(), Ms(15));
}

TEST(Service, BusyIntegralPartialAccrual) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 8, 1), 0);
  svc.RunCpu(Ms(10), [] {});
  sim.RunUntil(Ms(4));
  EXPECT_EQ(svc.CumBusyCoreTime(), Ms(4));
  EXPECT_EQ(svc.cpu_busy(), 1);
  sim.RunAll();
  EXPECT_EQ(svc.CumBusyCoreTime(), Ms(10));
}

TEST(Service, AddReplicaExpandsBothResources) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 2, 1), 0);
  EXPECT_EQ(svc.threads(), 2);
  EXPECT_EQ(svc.cores(), 1);
  std::vector<int> granted;
  for (int i = 0; i < 5; ++i) {
    svc.AcquireSlot([&granted, i] { granted.push_back(i); });
  }
  sim.RunAll();
  EXPECT_EQ(granted, (std::vector<int>{0, 1}));
  svc.AddReplica();
  sim.RunAll();
  EXPECT_EQ(svc.threads(), 4);
  EXPECT_EQ(svc.cores(), 2);
  // The new capacity admits the waiting calls in arrival order; the last
  // keeps waiting.
  EXPECT_EQ(granted, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(svc.slots_waiting(), 1);
}

TEST(Service, AddReplicaStartsQueuedCpu) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 8, 1), 0);
  std::vector<SimTime> done;
  svc.RunCpu(Ms(10), [&] { done.push_back(sim.Now()); });
  svc.RunCpu(Ms(10), [&] { done.push_back(sim.Now()); });
  sim.At(Ms(1), [&] { svc.AddReplica(); });
  sim.RunAll();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], Ms(10));
  EXPECT_EQ(done[1], Ms(11));  // started at 1ms on the new core
}

TEST(Service, RemoveReplicaRefusesBelowOne) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 2, 1), 0);
  EXPECT_FALSE(svc.RemoveReplica());
  svc.AddReplica();
  EXPECT_TRUE(svc.RemoveReplica());
  EXPECT_EQ(svc.replicas(), 1);
}

TEST(Service, ShrinkDoesNotAbortInFlightWork) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 1, 1), 0);
  svc.AddReplica();
  int done = 0;
  svc.RunCpu(Ms(10), [&] { ++done; });
  svc.RunCpu(Ms(10), [&] { ++done; });
  sim.At(Ms(1), [&] { svc.RemoveReplica(); });
  sim.RunAll();
  EXPECT_EQ(done, 2);  // both bursts complete despite the shrink
}

TEST(Service, ShrunkCpuDelaysNewBursts) {
  sim::Simulation sim;
  Service svc(sim, grunt::testing::Svc("s", 4, 1), 0);
  svc.AddReplica();  // 2 cores
  std::vector<SimTime> done;
  svc.RunCpu(Ms(10), [&] { done.push_back(sim.Now()); });
  svc.RunCpu(Ms(10), [&] { done.push_back(sim.Now()); });
  sim.At(Ms(1), [&] {
    svc.RemoveReplica();                      // back to 1 core
    svc.RunCpu(Ms(5), [&] { done.push_back(sim.Now()); });
  });
  sim.RunAll();
  ASSERT_EQ(done.size(), 3u);
  // The third burst must wait until one of the in-flight bursts finishes.
  EXPECT_EQ(done[2], Ms(15));
}

}  // namespace
}  // namespace grunt::microsvc
