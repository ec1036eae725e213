// Exact per-request costs of the request lifecycle, pinned as ceilings.
//
// Each shape drives one long-lived Cluster with a fixed number of request
// batches: warm-up batches first, unmeasured, then the measured window. Over
// that window the test reads counts that repeat to the unit from run to run:
// events fired per request, closures that spilled to the heap, calls of the
// global operator new (replaced below by a counting pass-through) and
// slab-pool growth. Each ceiling sits at the measured value, or, for
// allocations, at 0.02 per request, so one extra event or one extra
// allocation per request fails it. A change that adds either must raise the
// ceiling here and say why. Host time is perfbench's business, not this
// file's.
//
// Every shape runs twice: bare, and with one counting subscriber each on the
// submit, completion and span channels. Live subscribers must change none of
// the counts.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>

#include "fixtures.h"
#include "microsvc/cluster.h"
#include "scenario/builtin_apps.h"
#include "scenario/loader.h"
#include "sim/simulation.h"

namespace {

// Thread-local, so only the test thread's own allocations count.
thread_local std::uint64_t t_allocations = 0;

void* CountedAlloc(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The aligned forms are left to the runtime: they pair with their own
// aligned deletes, and nothing on the simulator's hot path over-aligns.
void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace grunt {
namespace {

using microsvc::Cluster;
using microsvc::RequestClass;

/// Slots per SlabPool chunk: a pool whose capacity is this never grew.
constexpr std::size_t kPoolChunk = 256;

/// Schedules batch number `index` of a shape from sim.Now() on.
using Batch = std::function<void(sim::Simulation&, Cluster&, int index)>;

struct Shape {
  microsvc::Application app;
  int warm_batches = 0;
  int measured_batches = 0;
  Batch batch;
};

/// What the measured window cost. Engine counters are window deltas; the
/// pool stats are the whole run's.
struct Costs {
  std::uint64_t requests = 0;        ///< completed in the window
  std::uint64_t events = 0;          ///< events fired in the window
  std::uint64_t heap_callbacks = 0;  ///< closures that spilled to the heap
  std::uint64_t allocations = 0;     ///< operator new calls in the window
  std::uint64_t wheel_scheduled = 0;
  std::uint64_t wheel_cancelled = 0;  ///< cancelled inside their bucket
  std::uint64_t wheel_to_heap = 0;
  std::uint64_t heap_dead = 0;  ///< cancelled entries popped or purged
  std::uint64_t compactions = 0;
  std::uint64_t spans = 0;  ///< seen by the span subscriber, if any
  Cluster::LifecycleStats pools;
  bool pools_grew = false;  ///< any pool took a chunk in the window
};

std::size_t PoolCapacity(const Cluster::LifecycleStats& p) {
  return p.requests.capacity + p.calls.capacity + p.hops.capacity;
}

Costs Measure(const Shape& shape, bool subscribers, bool wheel = true) {
  sim::Simulation sim;
  sim.SetTimerWheelEnabled(wheel);
  Cluster cluster(sim, shape.app, 1);
  auto& bus = cluster.telemetry();
  auto& reg = bus.metrics();
  const auto spans = reg.Counter("test.spans");
  if (subscribers) {
    const auto submits = reg.Counter("test.submits");
    const auto completions = reg.Counter("test.completions");
    bus.submit().Subscribe([&reg, submits](const telemetry::RequestSubmit&) {
      reg.Add(submits);
    });
    bus.completion().Subscribe(
        [&reg, completions](const microsvc::CompletionRecord&) {
          reg.Add(completions);
        });
    bus.span().Subscribe(
        [&reg, spans](const telemetry::SpanEvent&) { reg.Add(spans); });
  }
  int index = 0;
  for (; index < shape.warm_batches; ++index) {
    shape.batch(sim, cluster, index);
    sim.RunAll();
  }
  const auto e0 = sim.stats();
  const std::uint64_t fired0 = sim.events_fired();
  const std::uint64_t done0 = cluster.completed_count();
  const std::uint64_t spans0 = reg.counter_value(spans);
  const std::size_t capacity0 = PoolCapacity(cluster.lifecycle_stats());
  const std::uint64_t allocs0 = t_allocations;
  for (; index < shape.warm_batches + shape.measured_batches; ++index) {
    shape.batch(sim, cluster, index);
    sim.RunAll();
  }
  Costs c;
  c.allocations = t_allocations - allocs0;
  const auto e1 = sim.stats();
  c.requests = cluster.completed_count() - done0;
  c.events = sim.events_fired() - fired0;
  c.heap_callbacks = e1.heap_callbacks - e0.heap_callbacks;
  c.wheel_scheduled = e1.wheel_scheduled - e0.wheel_scheduled;
  c.wheel_cancelled = e1.wheel_cancelled - e0.wheel_cancelled;
  c.wheel_to_heap = e1.wheel_to_heap - e0.wheel_to_heap;
  c.heap_dead = (e1.cancelled_popped + e1.cancelled_purged) -
                (e0.cancelled_popped + e0.cancelled_purged);
  c.compactions = e1.compactions - e0.compactions;
  c.spans = reg.counter_value(spans) - spans0;
  c.pools = cluster.lifecycle_stats();
  c.pools_grew = PoolCapacity(c.pools) != capacity0;
  return c;
}

/// Runs `shape` bare, checks the shared ceilings, runs it again with live
/// subscribers and checks that they changed no count. Returns the bare run.
Costs MeasureShape(const Shape& shape, std::uint64_t requests,
                   std::uint64_t max_events) {
  const Costs c = Measure(shape, /*subscribers=*/false);
  EXPECT_EQ(c.requests, requests);
  EXPECT_LE(c.events, max_events)
      << static_cast<double>(c.events) / static_cast<double>(c.requests)
      << " events per request";
  EXPECT_EQ(c.heap_callbacks, 0u);
  EXPECT_LE(c.allocations * 50, c.requests)
      << c.allocations << " allocations over " << c.requests << " requests";
  EXPECT_FALSE(c.pools_grew);

  const Costs s = Measure(shape, /*subscribers=*/true);
  EXPECT_EQ(s.requests, c.requests);
  EXPECT_EQ(s.events, c.events);
  EXPECT_EQ(s.heap_callbacks, 0u);
  EXPECT_EQ(s.allocations, c.allocations);
  EXPECT_FALSE(s.pools_grew);
  EXPECT_GT(s.spans, 0u);
  return c;
}

/// The three-hop chain, 200 requests 1 ms apart per batch.
TEST(CostCounters, SingleChain) {
  const Shape shape{testing::SingleChainApp(), 20, 20,
                    [](sim::Simulation& sim, Cluster& cluster, int) {
                      const SimTime t = sim.Now();
                      for (int i = 0; i < 200; ++i) {
                        sim.At(t + i * Ms(1), [&cluster] {
                          cluster.Submit(0, RequestClass::kLegit, false, 1);
                        });
                      }
                    }};
  const Costs c = MeasureShape(shape, 4000, 60'000);  // 15 per request
  EXPECT_LE(c.pools.requests.high_water, 136u);
  EXPECT_LE(c.pools.calls.high_water, 146u);
  EXPECT_LE(c.pools.hops.high_water, 146u);
  EXPECT_EQ(PoolCapacity(c.pools), 3 * kPoolChunk);
}

/// The Table I SocialNetwork topology, 200 requests 0.5 ms apart per batch,
/// round robin over every request type.
TEST(CostCounters, SocialNetworkRoundRobin) {
  const auto app =
      scenario::BuildApplication(scenario::SocialNetworkScenario().topology);
  const auto types = static_cast<int>(app.request_type_count());
  const Shape shape{app, 20, 20,
                    [types](sim::Simulation& sim, Cluster& cluster,
                            int index) {
                      const SimTime t = sim.Now();
                      for (int i = 0; i < 200; ++i) {
                        const auto type = static_cast<microsvc::RequestTypeId>(
                            (index * 200 + i) % types);
                        sim.At(t + i * Us(500), [&cluster, type] {
                          cluster.Submit(type, RequestClass::kLegit, false, 1);
                        });
                      }
                    }};
  const Costs c = MeasureShape(shape, 4000, 71'992);  // 17.998 per request
  EXPECT_EQ(PoolCapacity(c.pools), 3 * kPoolChunk);
}

/// kTimerHeavyBatch requests at one instant per batch on the defended chain:
/// nearly every attempt files a timeout guard in the wheel and cancels it on
/// the in-time reply.
TEST(CostCounters, TimerHeavyBursts) {
  const Shape shape{testing::TimerHeavyApp(), 4, 8,
                    [](sim::Simulation& sim, Cluster& cluster, int) {
                      sim.At(sim.Now(), [&cluster] {
                        for (int i = 0; i < testing::kTimerHeavyBatch; ++i) {
                          cluster.Submit(0, RequestClass::kLegit, false, 1);
                        }
                      });
                    }};
  // 18.837 per request.
  const Costs c = MeasureShape(shape, 20'000, 376'734);
  ASSERT_GT(c.wheel_cancelled, 0u);
  // >= 95 % of wheel-filed guards die in their bucket, <= 2 % reach the heap.
  EXPECT_GE(c.wheel_cancelled * 100, c.wheel_scheduled * 95);
  EXPECT_LE(c.wheel_to_heap * 100, c.wheel_scheduled * 2);
  EXPECT_EQ(c.compactions, 0u);

  // The wheel is a placement optimization: the heap-only engine fires the
  // same events on the same feed, but every guard the wheel cancelled in its
  // bucket is a dead heap entry there, to pop or purge.
  const Costs heap = Measure(shape, /*subscribers=*/false, /*wheel=*/false);
  EXPECT_EQ(heap.requests, c.requests);
  EXPECT_EQ(heap.events, c.events);
  EXPECT_EQ(heap.wheel_scheduled, 0u);
  EXPECT_EQ(heap.heap_dead, c.heap_dead + c.wheel_cancelled);
}

}  // namespace
}  // namespace grunt
