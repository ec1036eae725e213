// Micro-benchmarks (google-benchmark) for the hot paths of the substrate:
// event scheduling/firing, end-to-end simulated request throughput, the
// Section III model equations, Kalman updates, and dependency-group
// union-find. These bound how much simulated time a bench second buys.
// Output goes to stdout only; perfbench/ is where end-to-end time is
// measured, and tests/test_cost_counters.cpp pins exact per-request costs.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "attack/kalman.h"
#include "fixtures_path.h"
#include "microsvc/cluster.h"
#include "model/queuing_model.h"
#include "sim/simulation.h"
#include "trace/dependency.h"
#include "util/rng.h"

namespace grunt {
namespace {

void BM_EventScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.At(i, [&sink] { ++sink; });
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventScheduleFire);

void BM_EventScheduleFireHeapCallback(benchmark::State& state) {
  // Captures larger than InplaceFunction::kInlineCapacity spill to the
  // heap; this bounds the cost of the slow path relative to the SBO path.
  struct BigCapture {
    char pad[sim::InplaceFunction::kInlineCapacity] = {};
    int* sink = nullptr;
  };
  for (auto _ : state) {
    sim::Simulation sim;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.At(i, [big = BigCapture{{}, &sink}] { ++*big.sink; });
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sink);
    if (sim.stats().heap_callbacks != 1000) {
      state.SkipWithError("expected heap-path callbacks");
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventScheduleFireHeapCallback);

void BM_EveryRearmFire(benchmark::State& state) {
  // A single repeating event firing 1000 times: the callback is stored once
  // and the entry re-arms in place, so this is pure heap + fire cost.
  for (auto _ : state) {
    sim::Simulation sim;
    int ticks = 0;
    auto handle = sim.Every(1, [&ticks] { ++ticks; });
    sim.RunUntil(1000);
    handle.Cancel();
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EveryRearmFire);

void BM_CancelHeavyCompaction(benchmark::State& state) {
  // Schedule 1000, cancel 750 up front: exercises the generation-counter
  // cancellation and the lazy purge that compacts the heap once cancelled
  // entries outnumber live ones.
  std::vector<sim::EventHandle> handles;
  for (auto _ : state) {
    sim::Simulation sim;
    int sink = 0;
    handles.clear();
    handles.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(sim.At(i, [&sink] { ++sink; }));
    }
    for (int i = 0; i < 1000; ++i) {
      if (i % 4 != 0) handles[i].Cancel();
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CancelHeavyCompaction);

/// The RPC-timeout churn profile: schedule 1000 far-out timeouts from
/// staggered issue times, cancel 99% of them (the replies that made it), let
/// 1% fire. With the wheel this is O(1) bucket pushes and generation-bump
/// cancels; on the heap every dead entry has to be sifted in and purged out.
void TimerChurn(benchmark::State& state, bool use_wheel) {
  // One long-lived engine: each iteration is a steady-state churn round, not
  // a cold start, so the numbers isolate the timer path itself.
  sim::Simulation sim;
  sim.SetTimerWheelEnabled(use_wheel);
  int sink = 0;
  std::vector<sim::EventHandle> handles;
  handles.reserve(1000);
  for (auto _ : state) {
    handles.clear();
    const SimTime base = sim.Now();
    for (int i = 0; i < 1000; ++i) {
      handles.push_back(
          sim.At(base + i * Us(100) + Ms(25), [&sink] { ++sink; }));
    }
    for (int i = 0; i < 1000; ++i) {
      if (i % 100 != 0) handles[i].Cancel();
    }
    sim.RunAll();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}

void BM_TimerChurnWheel(benchmark::State& state) { TimerChurn(state, true); }
BENCHMARK(BM_TimerChurnWheel);

void BM_TimerChurnHeap(benchmark::State& state) { TimerChurn(state, false); }
BENCHMARK(BM_TimerChurnHeap);

void BM_SimulatedRequestThroughput(benchmark::State& state) {
  const auto app = bench_fixtures::SingleChainApp();
  for (auto _ : state) {
    sim::Simulation sim;
    microsvc::Cluster cluster(sim, app, 1);
    for (int i = 0; i < 200; ++i) {
      sim.At(i * Ms(1), [&cluster] {
        cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
      });
    }
    sim.RunAll();
    benchmark::DoNotOptimize(cluster.completed_count());
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_SimulatedRequestThroughput);

void BM_ModelEquations(benchmark::State& state) {
  const model::Stage um{32, 1000, 1500, 200};
  const model::Stage bn{40, 200, 300, 100};
  const model::Stage stages[] = {um, bn};
  const model::Burst burst{500, 0.5};
  for (auto _ : state) {
    double acc = model::QueueFromCrossTierBlocking(burst, stages);
    acc += model::MillibottleneckLength(burst, bn);
    acc += model::DamageLatency(acc, bn);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ModelEquations);

void BM_KalmanUpdate(benchmark::State& state) {
  attack::ScalarKalman kf(1.0, 25.0, 0.0, 100.0);
  double x = 0;
  for (auto _ : state) {
    x = kf.Update(x + 1.0);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_KalmanUpdate);

void BM_DependencyGroupsUnionFind(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  RngStream rng(1, "bench.uf");
  for (auto _ : state) {
    trace::DependencyGroups groups(n);
    for (std::size_t i = 0; i + 1 < n; i += 2) {
      groups.Union(static_cast<std::int32_t>(i),
                   static_cast<std::int32_t>(
                       rng.NextInt(0, static_cast<std::int64_t>(n) - 1)));
    }
    benchmark::DoNotOptimize(groups.Groups().size());
  }
}
BENCHMARK(BM_DependencyGroupsUnionFind)->Arg(64)->Arg(1024);

void BM_RngExponential(benchmark::State& state) {
  RngStream rng(1, "bench.rng");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextExpDuration(Ms(7)));
  }
}
BENCHMARK(BM_RngExponential);

}  // namespace
}  // namespace grunt

BENCHMARK_MAIN();
