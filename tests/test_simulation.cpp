#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "fixtures.h"
#include "microsvc/cluster.h"
#include "util/rng.h"

namespace grunt::sim {
namespace {

TEST(Simulation, FiresInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.At(Ms(30), [&] { order.push_back(3); });
  sim.At(Ms(10), [&] { order.push_back(1); });
  sim.At(Ms(20), [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Ms(30));
}

TEST(Simulation, TiesBreakInSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.At(Ms(5), [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, RejectsPastScheduling) {
  Simulation sim;
  sim.At(Ms(10), [] {});
  sim.RunAll();
  EXPECT_THROW(sim.At(Ms(5), [] {}), std::invalid_argument);
}

TEST(Simulation, AfterClampsNegativeDelay) {
  Simulation sim;
  bool fired = false;
  sim.At(Ms(10), [&] {
    sim.After(-100, [&] { fired = true; });
  });
  sim.RunAll();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.Now(), Ms(10));
}

TEST(Simulation, CancelPreventsFiring) {
  Simulation sim;
  bool fired = false;
  EventHandle h = sim.At(Ms(10), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.Cancel();
  EXPECT_FALSE(h.pending());
  sim.RunAll();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_fired(), 0u);
}

TEST(Simulation, RunUntilStopsAtBoundaryInclusive) {
  Simulation sim;
  int fired = 0;
  sim.At(Ms(10), [&] { ++fired; });
  sim.At(Ms(20), [&] { ++fired; });
  sim.At(Ms(21), [&] { ++fired; });
  const auto n = sim.RunUntil(Ms(20));
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), Ms(20));
  sim.RunUntil(Ms(30));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.Now(), Ms(30));  // clock advances even after queue drains
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.After(Ms(1), recurse);
  };
  sim.After(Ms(1), recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), Ms(5));
}

TEST(Simulation, EveryRepeatsUntilCancelled) {
  Simulation sim;
  int count = 0;
  EventHandle h = sim.Every(Ms(10), [&] { ++count; });
  sim.RunUntil(Ms(55));
  EXPECT_EQ(count, 5);
  h.Cancel();
  sim.RunUntil(Ms(200));
  EXPECT_EQ(count, 5);
}

TEST(Simulation, EveryRejectsNonPositivePeriod) {
  Simulation sim;
  EXPECT_THROW(sim.Every(0, [] {}), std::invalid_argument);
}

TEST(Simulation, StopInterruptsRun) {
  Simulation sim;
  int fired = 0;
  sim.At(Ms(1), [&] {
    ++fired;
    sim.Stop();
  });
  sim.At(Ms(2), [&] { ++fired; });
  sim.RunUntil(Ms(100));
  EXPECT_EQ(fired, 1);
  // A subsequent run resumes.
  sim.RunUntil(Ms(100));
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, PendingEventCountTracksQueue) {
  Simulation sim;
  sim.At(Ms(1), [] {});
  sim.At(Ms(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.RunAll();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_fired(), 2u);
}

TEST(Simulation, PendingEventCountAgreesWithHandleDuringEveryCallback) {
  // While an Every callback executes its slot is out of the heap
  // (firing_slot_), but the series is still pending per its handle;
  // pending_events() must count it instead of transiently under-reporting.
  Simulation sim;
  EventHandle h;
  std::vector<std::size_t> observed;
  std::vector<bool> handle_pending;
  h = sim.Every(Ms(10), [&] {
    observed.push_back(sim.pending_events());
    handle_pending.push_back(h.pending());
    if (observed.size() == 2) {
      h.Cancel();
      // Once cancelled mid-callback the series is no longer pending and
      // the count must agree immediately.
      observed.push_back(sim.pending_events());
      handle_pending.push_back(h.pending());
    }
  });
  sim.RunUntil(Ms(25));
  ASSERT_EQ(observed.size(), 3u);
  EXPECT_EQ(observed, (std::vector<std::size_t>{1, 1, 0}));
  EXPECT_EQ(handle_pending, (std::vector<bool>{true, true, false}));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, RunUntilDoesNotOvershootPastCancelledHead) {
  // A cancelled head entry must not let RunUntil fire events beyond the
  // boundary (the pre-arena engine had exactly this quirk: the <= until
  // check looked at the cancelled top, then the pop skipped it and fired
  // whatever came next, however late).
  Simulation sim;
  bool late_fired = false;
  EventHandle head = sim.At(Ms(10), [] {});
  sim.At(Ms(30), [&] { late_fired = true; });
  head.Cancel();
  sim.RunUntil(Ms(20));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.Now(), Ms(20));
  sim.RunUntil(Ms(30));
  EXPECT_TRUE(late_fired);
}

TEST(Simulation, StaleHandleCannotCancelRecycledSlot) {
  // After an event fires, its arena slot is recycled for later events. A
  // handle to the fired event must go inert (generation mismatch), not
  // cancel whichever unrelated event inherited the slot.
  Simulation sim;
  bool second_fired = false;
  EventHandle first = sim.At(Ms(1), [] {});
  sim.RunAll();
  EXPECT_FALSE(first.pending());
  // With a single-slot arena the next event reuses the same slot index.
  EventHandle second = sim.At(Ms(2), [&] { second_fired = true; });
  first.Cancel();  // stale: must be a no-op
  EXPECT_TRUE(second.pending());
  sim.RunAll();
  EXPECT_TRUE(second_fired);
}

TEST(Simulation, CancelInsideOwnCallbackOfOneShotIsInert) {
  Simulation sim;
  EventHandle h;
  int fired = 0;
  h = sim.At(Ms(1), [&] {
    ++fired;
    EXPECT_FALSE(h.pending());  // already firing: no longer pending
    h.Cancel();                 // must not corrupt the slot being recycled
  });
  sim.At(Ms(2), [&] { ++fired; });
  sim.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EveryStoresCallbackOnceAndRearmsInPlace) {
  // The repeating callback must be constructed/moved into the engine exactly
  // once for the whole series, not copied or re-moved per tick.
  static int live = 0;
  static int constructed = 0;
  struct Tick {
    int* count;
    Tick(int* c) : count(c) {  // NOLINT(runtime/explicit)
      ++live;
      ++constructed;
    }
    Tick(const Tick& o) : count(o.count) {
      ++live;
      ++constructed;
    }
    Tick(Tick&& o) noexcept : count(o.count) {
      ++live;
      ++constructed;
    }
    ~Tick() { --live; }
    void operator()() { ++*count; }
  };
  live = 0;
  constructed = 0;
  int ticks = 0;
  {
    Simulation sim;
    sim.Every(Ms(1), Tick(&ticks));
    const int constructed_after_arming = constructed;
    sim.RunUntil(Ms(100));
    EXPECT_EQ(ticks, 100);
    EXPECT_EQ(constructed, constructed_after_arming)
        << "repeating callback was copied/moved while ticking";
  }
  EXPECT_EQ(live, 0) << "callback leaked or double-destroyed";
}

TEST(Simulation, EveryCancelFromInsideOwnCallbackStopsSeries) {
  Simulation sim;
  int count = 0;
  EventHandle h;
  h = sim.Every(Ms(10), [&] {
    if (++count == 3) h.Cancel();
  });
  sim.RunUntil(Sec(1));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(h.pending());
}

TEST(Simulation, StatsCountCancellationsAndCompaction) {
  Simulation sim;
  std::vector<EventHandle> handles;
  // Times stay inside the near band (under one level-0 wheel horizon) so
  // every entry lands in the heap — this test exercises heap compaction.
  for (int i = 0; i < 100; ++i) {
    handles.push_back(sim.At(Us(100 + 35 * i), [] {}));
  }
  // Cancelling more than half of a >=64-entry queue must trigger the lazy
  // compaction instead of leaving the dead entries to the pop path.
  for (int i = 0; i < 80; ++i) handles[static_cast<std::size_t>(i)].Cancel();
  const auto st = sim.stats();
  EXPECT_GE(st.compactions, 1u);
  EXPECT_GE(st.cancelled_purged, 50u);
  EXPECT_EQ(sim.pending_events(), 20u);
  sim.RunAll();
  EXPECT_EQ(sim.events_fired(), 20u);
  EXPECT_EQ(sim.stats().events_scheduled, 100u);
}

TEST(Simulation, StatsCountCancelledPoppedWithoutCompaction) {
  Simulation sim;
  EventHandle h = sim.At(Ms(1), [] {});
  sim.At(Ms(2), [] {});
  h.Cancel();  // queue too small for compaction: purged at pop time
  sim.RunAll();
  const auto st = sim.stats();
  EXPECT_EQ(st.cancelled_popped, 1u);
  EXPECT_EQ(st.compactions, 0u);
  EXPECT_EQ(sim.events_fired(), 1u);
}

TEST(Simulation, StatsTrackInlineVersusHeapCallbacks) {
  Simulation sim;
  sim.At(Ms(1), [] {});  // captureless: inline
  struct Big {
    char payload[InplaceFunction::kInlineCapacity + 8] = {};
  };
  Big big;
  sim.At(Ms(2), [big] { (void)big; });  // exceeds the SBO: heap
  sim.RunAll();
  const auto st = sim.stats();
  EXPECT_EQ(st.events_scheduled, 2u);
  EXPECT_EQ(st.inline_callbacks, 1u);
  EXPECT_EQ(st.heap_callbacks, 1u);
}

TEST(Simulation, ZeroDelayChainsDoNotAdvanceTime) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 1000) sim.After(0, chain);
  };
  sim.At(Us(5), chain);
  sim.RunAll();
  EXPECT_EQ(depth, 1000);
  EXPECT_EQ(sim.Now(), Us(5));
}

TEST(Simulation, CallbackCanCancelLaterEntryAtSameTimestamp) {
  Simulation sim;
  bool b_fired = false;
  EventHandle b;
  sim.After(0, [&] { b.Cancel(); });  // runs first, kills b before it fires
  b = sim.After(0, [&] { b_fired = true; });
  sim.RunAll();
  EXPECT_FALSE(b_fired);
  EXPECT_EQ(sim.events_fired(), 1u);
}

TEST(Simulation, HeapWheelAndZeroDelayTiesFollowScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  const SimTime t = Ms(10);
  sim.At(t, [&] { order.push_back(1); });  // far out: wheel
  sim.At(t - Ms(1), [&] {                  // far out: wheel
    sim.At(t, [&] {  // near: heap, later seq than the wheel entry
      order.push_back(2);
      sim.After(0, [&] { order.push_back(4); });  // newest seq: last
    });
    sim.At(t, [&] { order.push_back(3); });
  });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.Now(), t);
  EXPECT_EQ(sim.stats().wheel_scheduled, 2u);  // the other three: heap
}

TEST(Simulation, HeavyZeroDelayChurnDrains) {
  Simulation sim;
  std::uint64_t fired = 0;
  for (int round = 0; round < 100; ++round) {
    EventHandle victims[4];
    for (int i = 0; i < 16; ++i) {
      EventHandle h = sim.After(0, [&] { ++fired; });
      if (i % 4 == 0) victims[i / 4] = h;
    }
    for (EventHandle& v : victims) v.Cancel();
    sim.RunAll();
  }
  EXPECT_EQ(fired, 1200u);
  EXPECT_EQ(sim.events_fired(), 1200u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// --- Determinism regression across the event-core rewrite ---------------
//
// Full-stack scenario (SocialNetwork-style two-path app, closed completion
// records, a cancelled periodic monitor) whose completion stream is hashed.
// The hash is pinned: any engine change that reorders same-time events,
// changes tie-breaking, or perturbs RNG consumption shows up here.
//
// The constants were captured on the pre-arena engine (std::priority_queue +
// std::function + shared_ptr control blocks) and reproduced bit-for-bit by
// the arena engine. One deliberate difference: the old engine counted 8051
// fired events because a cancelled Every series still fired its final
// already-queued wrapper event as a no-op; the arena engine purges it before
// firing, so the count is one lower while the completion stream is
// unchanged.

std::uint64_t HashMix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ull;  // FNV-1a prime
  return h;
}

struct GoldenRun {
  std::uint64_t events = 0;
  std::uint64_t hash = 0;
  std::uint64_t retried = 0;  ///< completions that spent >= 1 retry
  std::array<std::uint64_t, microsvc::kOutcomeCount> outcomes{};
};

GoldenRun RunGoldenScenario() {
  Simulation sim;
  const auto app = grunt::testing::TwoPathParallelApp();
  microsvc::Cluster cluster(sim, app, /*seed=*/42);
  const grunt::testing::CompletionLog log(cluster);
  RngStream arrivals(42, "determinism.arrivals");
  SimTime t = 0;
  for (int i = 0; i < 400; ++i) {
    t += arrivals.NextInt(Us(100), Ms(4));
    const auto type = static_cast<microsvc::RequestTypeId>(i % 2);
    const bool heavy = (i % 7 == 0);
    sim.At(t, [&cluster, type, heavy, i] {
      cluster.Submit(type, microsvc::RequestClass::kLegit, heavy,
                     static_cast<std::uint64_t>(i));
    });
  }
  int ticks = 0;
  EventHandle mon = sim.Every(Ms(10), [&ticks] { ++ticks; });
  sim.At(Ms(500), [&mon] { mon.Cancel(); });
  sim.RunAll();
  EXPECT_EQ(cluster.DrainInvariantsBroken(), "");

  GoldenRun out;
  out.events = sim.events_fired();
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  for (const auto& rec : log.records()) {
    h = HashMix(h, rec.request_id);
    h = HashMix(h, static_cast<std::uint64_t>(rec.type));
    h = HashMix(h, static_cast<std::uint64_t>(rec.start));
    h = HashMix(h, static_cast<std::uint64_t>(rec.end));
    h = HashMix(h, static_cast<std::uint64_t>(rec.outcome));
    h = HashMix(h, static_cast<std::uint64_t>(rec.retries));
  }
  h = HashMix(h, static_cast<std::uint64_t>(ticks));
  out.hash = h;
  return out;
}

TEST(SimulationDeterminism, GoldenCompletionStreamHash) {
  const GoldenRun run = RunGoldenScenario();
  EXPECT_EQ(run.events, 8050u);
  EXPECT_EQ(run.hash, 0xdefc67395863a7c4ull);
}

TEST(SimulationDeterminism, RepeatRunsAreBitIdentical) {
  const GoldenRun a = RunGoldenScenario();
  const GoldenRun b = RunGoldenScenario();
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.hash, b.hash);
}

// Multi-hop retry/fault golden scenario: per-hop timeouts + retries with
// jittered backoff, a deadline-carrying type, load shedding, a circuit
// breaker, and mid-run Crash/Restart (including a crash to zero replicas
// with waiters pending). Every failure path of the request lifecycle —
// timeout, rejection, breaker fast-fail, deadline, crash-kill — feeds the
// hash, so any lifecycle rewrite that perturbs ordering, RNG consumption or
// outcome accounting shows up here. Constants captured on the shared_ptr +
// std::function lifecycle and reproduced bit-for-bit by the pooled one.
GoldenRun RunRetryFaultGoldenScenario() {
  Simulation sim;
  microsvc::Application::Builder b;
  b.SetName("golden-faults")
      .SetServiceTimeDist(microsvc::ServiceTimeDist::kExponential)
      .SetNetLatency(Us(200));
  auto gw = grunt::testing::Svc("gw", 256, 4);
  auto um = grunt::testing::Svc("um", 6, 2);
  auto wa = grunt::testing::Svc("worker-a", 4, 1);
  wa.max_queue_per_replica = 3;  // load shedding
  auto wb = grunt::testing::Svc("worker-b", 4, 1);
  wb.breaker_threshold = 3;
  wb.breaker_cooldown = Ms(80);
  auto leaf = grunt::testing::Svc("leaf", 2, 1);
  const microsvc::ServiceId gw_id = b.AddService(gw);
  const microsvc::ServiceId um_id = b.AddService(um);
  const microsvc::ServiceId wa_id = b.AddService(wa);
  const microsvc::ServiceId wb_id = b.AddService(wb);
  const microsvc::ServiceId leaf_id = b.AddService(leaf);

  microsvc::RpcPolicy retrying;
  retrying.timeout = Ms(25);
  retrying.max_retries = 2;
  retrying.backoff_base = Ms(2);
  retrying.backoff_multiplier = 2.0;
  retrying.jitter = 0.3;

  microsvc::RequestTypeSpec ta;
  ta.name = "a";
  // The wa hop carries no policy, so wa's crash-killed bursts (wa runs
  // near-saturated) surface upstream as terminal kFailed completions.
  ta.hops = {{gw_id, Us(200), 0, std::nullopt},
             {um_id, Us(800), Us(300), std::nullopt},
             {wa_id, Us(6000), Us(400), std::nullopt},
             {leaf_id, Us(500), 0, retrying}};
  b.AddRequestType(ta);
  microsvc::RequestTypeSpec tb;
  tb.name = "b";
  tb.deadline = Ms(90);
  tb.hops = {{gw_id, Us(200), 0, std::nullopt},
             {um_id, Us(800), Us(300), std::nullopt},
             {wb_id, Us(6000), Us(400), retrying},
             {leaf_id, Us(500), 0, std::nullopt}};
  b.AddRequestType(tb);
  const auto app = std::move(b).Build();

  microsvc::Cluster cluster(sim, app, /*seed=*/7);
  const grunt::testing::CompletionLog log(cluster);
  RngStream arrivals(7, "determinism.fault.arrivals");
  SimTime t = 0;
  for (int i = 0; i < 300; ++i) {
    t += arrivals.NextInt(Us(100), Ms(3));
    const auto type = static_cast<microsvc::RequestTypeId>(i % 2);
    const bool heavy = (i % 5 == 0);
    sim.At(t, [&cluster, type, heavy, i] {
      cluster.Submit(type, microsvc::RequestClass::kLegit, heavy,
                     static_cast<std::uint64_t>(i));
    });
  }
  // Faults: crash worker-a mid-run (killing queued + running bursts), crash
  // the single-replica leaf to zero (stranding slot waiters), then restart
  // both while arrivals are still flowing.
  sim.At(Ms(120), [&cluster, wa_id] { cluster.service(wa_id).Crash(); });
  sim.At(Ms(150), [&cluster, leaf_id] { cluster.service(leaf_id).Crash(); });
  // um's hop carries no retry policy, so its killed bursts surface as
  // terminal kFailed completions.
  sim.At(Ms(180), [&cluster, um_id] { cluster.service(um_id).Crash(); });
  sim.At(Ms(210), [&cluster, um_id] { cluster.service(um_id).Restart(); });
  sim.At(Ms(230), [&cluster, leaf_id] { cluster.service(leaf_id).Restart(); });
  sim.At(Ms(260), [&cluster, wa_id] { cluster.service(wa_id).Restart(); });
  sim.RunAll();
  EXPECT_EQ(cluster.DrainInvariantsBroken(), "");

  GoldenRun out;
  out.events = sim.events_fired();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& rec : log.records()) {
    h = HashMix(h, rec.request_id);
    h = HashMix(h, static_cast<std::uint64_t>(rec.type));
    h = HashMix(h, static_cast<std::uint64_t>(rec.start));
    h = HashMix(h, static_cast<std::uint64_t>(rec.end));
    h = HashMix(h, static_cast<std::uint64_t>(rec.outcome));
    h = HashMix(h, static_cast<std::uint64_t>(rec.retries));
    out.retried += rec.retries > 0;
  }
  for (std::size_t o = 0; o < microsvc::kOutcomeCount; ++o) {
    out.outcomes[o] = cluster.outcome_count(static_cast<microsvc::Outcome>(o));
    h = HashMix(h, out.outcomes[o]);
  }
  out.hash = h;
  return out;
}

TEST(SimulationDeterminism, GoldenRetryFaultStreamHash) {
  const GoldenRun run = RunRetryFaultGoldenScenario();
  // Every outcome kind must actually occur or the scenario lost coverage.
  for (std::size_t o = 0; o < microsvc::kOutcomeCount; ++o) {
    EXPECT_GT(run.outcomes[o], 0u)
        << "outcome " << microsvc::ToString(static_cast<microsvc::Outcome>(o))
        << " never produced";
  }
  EXPECT_GT(run.retried, 0u) << "no completion ever retried";
  EXPECT_EQ(run.events, 4736u) << "events=" << run.events;
  EXPECT_EQ(run.hash, 0xabadb062c4ab398cull) << "hash=0x" << std::hex
                                             << run.hash;
}

}  // namespace
}  // namespace grunt::sim
