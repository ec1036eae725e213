// End-to-end request-lifecycle micro-benchmark for the pooled Cluster state
// machine, and the source of `BENCH_cluster.json` (path overridable via
// GRUNT_BENCH_CLUSTER_JSON).
//
// Three workloads, all pure lifecycle (no monitors / autoscaler / attack):
//  * single_chain_cold   — the exact PR 2 baseline methodology (a fresh
//    Simulation+Cluster per 200-request batch), comparable 1:1 with the
//    600.7k req/s number this issue's ≥1.5× target is measured against;
//  * single_chain_steady — one long-lived Cluster fed batch after batch, the
//    regime the slab pools are built for (warm pools, bounded completion
//    log, zero steady-state allocation);
//  * socialnetwork_table1 — the Table I SocialNetwork topology under a
//    round-robin open-loop mix over its public request types.
//
// The JSON carries req/s per workload, the speedup against the checked-in
// PR 2 baseline constant, the slab-pool occupancy counters from the steady
// run, and the telemetry-overhead ratio (steady single-chain with live bus
// subscribers vs without). CI compares the steady number and the overhead
// ratio against the checked-in floors in bench/BENCH_cluster.floor.json
// (warn-only). All JSON is emitted through util/json + the telemetry
// registry exporter, so formatting matches every other metrics dump; with
// GRUNT_METRICS_JSON set, the telemetry run's full registry snapshot is
// written there as the per-run metrics artifact.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "fixtures_path.h"
#include "microsvc/cluster.h"
#include "scenario/builtin_apps.h"
#include "scenario/loader.h"
#include "sim/simulation.h"
#include "telemetry/engine_metrics.h"
#include "util/json.h"

namespace grunt {
namespace {

/// PR 2's checked-in end-to-end throughput on the single-chain workload
/// (BM_SimulatedRequestThroughput, reference container) — the denominator of
/// this issue's ≥1.5× acceptance bar.
constexpr double kPr2BaselineReqPerSec = 600700.0;

constexpr double kMinWallSec = 0.6;
constexpr int kBatch = 200;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Measurement {
  double req_per_sec = 0;
  std::uint64_t requests = 0;
  microsvc::Cluster::LifecycleStats pools;
  sim::Simulation::EngineStats engine;
};

/// Fresh Simulation + Cluster per batch: byte-for-byte the PR 2 baseline
/// loop, so the ratio to kPr2BaselineReqPerSec is methodology-clean.
Measurement MeasureSingleChainCold() {
  const auto app = bench_fixtures::SingleChainApp();
  Measurement out;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    sim::Simulation sim;
    microsvc::Cluster cluster(sim, app, 1);
    for (int i = 0; i < kBatch; ++i) {
      sim.At(i * Ms(1), [&cluster] {
        cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
      });
    }
    sim.RunAll();
    out.requests += cluster.completed_count();
    elapsed = SecondsSince(t0);
  } while (elapsed < kMinWallSec);
  out.req_per_sec = static_cast<double>(out.requests) / elapsed;
  return out;
}

/// One long-lived Cluster, batches submitted back to back: pools stay warm,
/// the bounded completion log keeps memory flat — the campaign-scale regime.
Measurement MeasureSingleChainSteady() {
  const auto app = bench_fixtures::SingleChainApp();
  sim::Simulation sim;
  microsvc::Cluster cluster(sim, app, 1);
  cluster.SetCompletionLogBound(1024);
  Measurement out;
  SimTime t = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    for (int i = 0; i < kBatch; ++i) {
      sim.At(t + i * Ms(1), [&cluster] {
        cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
      });
    }
    sim.RunAll();
    t = sim.Now();
    elapsed = SecondsSince(t0);
  } while (elapsed < kMinWallSec);
  out.requests = cluster.completed_count();
  out.req_per_sec = static_cast<double>(out.requests) / elapsed;
  out.pools = cluster.lifecycle_stats();
  return out;
}

/// The Table I SocialNetwork topology under an open-loop round-robin sweep
/// of its public request types (multi-hop fan-ins, exponential service
/// times — the shape the damage tables simulate, minus the operator stack).
Measurement MeasureSocialNetwork() {
  const auto app =
      scenario::BuildApplication(scenario::SocialNetworkScenario().topology);
  sim::Simulation sim;
  microsvc::Cluster cluster(sim, app, 1);
  cluster.SetCompletionLogBound(1024);
  const auto types = app.request_type_count();
  Measurement out;
  SimTime t = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  std::uint64_t submitted = 0;
  do {
    for (int i = 0; i < kBatch; ++i) {
      const auto type =
          static_cast<microsvc::RequestTypeId>(submitted++ % types);
      sim.At(t + i * Us(500), [&cluster, type] {
        cluster.Submit(type, microsvc::RequestClass::kLegit, false, 1);
      });
    }
    sim.RunAll();
    t = sim.Now();
    elapsed = SecondsSince(t0);
  } while (elapsed < kMinWallSec);
  out.requests = cluster.completed_count();
  out.req_per_sec = static_cast<double>(out.requests) / elapsed;
  out.pools = cluster.lifecycle_stats();
  return out;
}

/// The defended timer-churn workload: TimerHeavyApp (per-attempt timeouts,
/// retries, deadline, bulkheads/limits/shedding) under a steady open-loop
/// feed near capacity. Nearly every attempt schedules a timeout guard and
/// cancels it on the in-time reply; `use_wheel` toggles the timing-wheel
/// fast path so the heap-only run is the baseline for the wheel's speedup.
Measurement MeasureTimerHeavy(bool use_wheel) {
  const auto app = bench_fixtures::TimerHeavyApp();
  sim::Simulation sim;
  sim.SetTimerWheelEnabled(use_wheel);
  microsvc::Cluster cluster(sim, app, 1);
  cluster.SetCompletionLogBound(1024);
  Measurement out;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    // One burst per iteration: the whole batch lands at the same instant and
    // drains through the entry queue, so most requests wait tens of ms
    // holding only their (wheel-eligible) timeout guard.
    sim.At(sim.Now(), [&cluster] {
      for (int i = 0; i < bench_fixtures::kTimerHeavyBatch; ++i) {
        cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
      }
    });
    sim.RunAll();
    elapsed = SecondsSince(t0);
  } while (elapsed < kMinWallSec);
  out.requests = cluster.completed_count();
  out.req_per_sec = static_cast<double>(out.requests) / elapsed;
  out.pools = cluster.lifecycle_stats();
  out.engine = sim.stats();
  return out;
}

/// The steady single-chain workload again, but with live bus consumers: a
/// counting subscriber on each of the submit/completion/span channels,
/// tallying through interned registry counters. The span subscription is the
/// expensive part — it forces per-hop SpanEvent construction that the plain
/// steady run skips entirely. The ratio against the plain run is the
/// telemetry plane's end-to-end cost, floored (warn-only) in CI.
struct TelemetryMeasurement {
  Measurement m;
  std::uint64_t spans = 0;
  json::Value metrics;  ///< full registry snapshot at end of run
};

TelemetryMeasurement MeasureSingleChainSteadyTelemetry() {
  const auto app = bench_fixtures::SingleChainApp();
  sim::Simulation sim;
  microsvc::Cluster cluster(sim, app, 1);
  cluster.SetCompletionLogBound(1024);

  auto& bus = cluster.telemetry();
  auto& reg = bus.metrics();
  const auto submits_c = reg.Counter("bench.submits");
  const auto completions_c = reg.Counter("bench.completions");
  const auto spans_c = reg.Counter("bench.spans");
  bus.submit().Subscribe(
      [&reg, submits_c](const telemetry::RequestSubmit&) {
        reg.Add(submits_c);
      });
  bus.completion().Subscribe(
      [&reg, completions_c](const microsvc::CompletionRecord&) {
        reg.Add(completions_c);
      });
  bus.span().Subscribe([&reg, spans_c](const telemetry::SpanEvent&) {
    reg.Add(spans_c);
  });

  TelemetryMeasurement out;
  SimTime t = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    for (int i = 0; i < kBatch; ++i) {
      sim.At(t + i * Ms(1), [&cluster] {
        cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
      });
    }
    sim.RunAll();
    t = sim.Now();
    elapsed = SecondsSince(t0);
  } while (elapsed < kMinWallSec);
  out.m.requests = cluster.completed_count();
  out.m.req_per_sec = static_cast<double>(out.m.requests) / elapsed;
  out.m.pools = cluster.lifecycle_stats();
  out.spans = reg.counter_value(spans_c);
  out.metrics = reg.Snapshot();
  return out;
}

/// Rounds like the old "%.0f" emitter so the JSON stays tidy (util/json
/// prints integral doubles without a decimal point).
json::Value Round0(double x) { return json::Value(std::round(x)); }
/// Rounds like the old "%.2f" emitter.
json::Value Round2(double x) {
  return json::Value(std::round(x * 100.0) / 100.0);
}

json::Value PoolJson(const sim::SlabPoolStats& p) {
  json::Object o;
  o.emplace_back("high_water", static_cast<std::int64_t>(p.high_water));
  o.emplace_back("capacity", static_cast<std::int64_t>(p.capacity));
  o.emplace_back("acquires", static_cast<std::int64_t>(p.acquires));
  return json::Value(std::move(o));
}

json::Value PoolsJson(const microsvc::Cluster::LifecycleStats& st) {
  json::Object o;
  o.emplace_back("requests", PoolJson(st.requests));
  o.emplace_back("calls", PoolJson(st.calls));
  o.emplace_back("hops", PoolJson(st.hops));
  return json::Value(std::move(o));
}

}  // namespace
}  // namespace grunt

int main() {
  using namespace grunt;
  std::fprintf(stderr, "measuring single-chain (cold, PR 2 methodology)...\n");
  const Measurement cold = MeasureSingleChainCold();
  std::fprintf(stderr, "measuring single-chain (steady, warm pools)...\n");
  const Measurement steady = MeasureSingleChainSteady();
  std::fprintf(stderr, "measuring SocialNetwork (table1 topology)...\n");
  const Measurement social = MeasureSocialNetwork();
  std::fprintf(stderr, "measuring timer-heavy chain (wheel)...\n");
  const Measurement timer_wheel = MeasureTimerHeavy(/*use_wheel=*/true);
  std::fprintf(stderr, "measuring timer-heavy chain (heap baseline)...\n");
  const Measurement timer_heap = MeasureTimerHeavy(/*use_wheel=*/false);
  std::fprintf(stderr, "measuring single-chain steady + live telemetry...\n");
  const TelemetryMeasurement tel = MeasureSingleChainSteadyTelemetry();

  const double cold_speedup = cold.req_per_sec / kPr2BaselineReqPerSec;
  const double steady_speedup = steady.req_per_sec / kPr2BaselineReqPerSec;
  const double wheel_speedup =
      timer_heap.req_per_sec > 0
          ? timer_wheel.req_per_sec / timer_heap.req_per_sec
          : 0.0;
  const double tel_ratio =
      steady.req_per_sec > 0 ? tel.m.req_per_sec / steady.req_per_sec : 0.0;
  std::printf("single_chain_cold:    %10.0f req/s  (%.2fx vs PR2 %.1fk)\n",
              cold.req_per_sec, cold_speedup, kPr2BaselineReqPerSec / 1000.0);
  std::printf("single_chain_steady:  %10.0f req/s  (%.2fx vs PR2 %.1fk)\n",
              steady.req_per_sec, steady_speedup,
              kPr2BaselineReqPerSec / 1000.0);
  std::printf("socialnetwork_table1: %10.0f req/s\n", social.req_per_sec);
  std::printf("timer_heavy (wheel):  %10.0f req/s  (%.2fx vs heap-only %.1fk)\n",
              timer_wheel.req_per_sec, wheel_speedup,
              timer_heap.req_per_sec / 1000.0);
  std::printf("telemetry_overhead:   %10.0f req/s  (%.2fx of steady, "
              "3 live subscribers)\n",
              tel.m.req_per_sec, tel_ratio);

  json::Object root;
  root.emplace_back("schema", 4);
  {
    json::Object o;
    o.emplace_back("pr2_req_per_sec", Round0(kPr2BaselineReqPerSec));
    o.emplace_back("workload", "single_chain_cold");
    root.emplace_back("baseline", json::Value(std::move(o)));
  }
  {
    json::Object o;
    o.emplace_back("req_per_sec", Round0(cold.req_per_sec));
    o.emplace_back("requests", static_cast<std::int64_t>(cold.requests));
    o.emplace_back("speedup_vs_pr2", Round2(cold_speedup));
    root.emplace_back("single_chain_cold", json::Value(std::move(o)));
  }
  {
    json::Object o;
    o.emplace_back("req_per_sec", Round0(steady.req_per_sec));
    o.emplace_back("requests", static_cast<std::int64_t>(steady.requests));
    o.emplace_back("speedup_vs_pr2", Round2(steady_speedup));
    o.emplace_back("pools", PoolsJson(steady.pools));
    root.emplace_back("single_chain_steady", json::Value(std::move(o)));
  }
  {
    json::Object o;
    o.emplace_back("req_per_sec", Round0(social.req_per_sec));
    o.emplace_back("requests", static_cast<std::int64_t>(social.requests));
    o.emplace_back("pools", PoolsJson(social.pools));
    root.emplace_back("socialnetwork_table1", json::Value(std::move(o)));
  }
  {
    json::Object o;
    o.emplace_back("req_per_sec", Round0(timer_wheel.req_per_sec));
    o.emplace_back("requests",
                   static_cast<std::int64_t>(timer_wheel.requests));
    o.emplace_back("req_per_sec_heap_only", Round0(timer_heap.req_per_sec));
    o.emplace_back("wheel_speedup", Round2(wheel_speedup));
    o.emplace_back("wheel", telemetry::WheelStatsJson(timer_wheel.engine));
    root.emplace_back("timer_heavy", json::Value(std::move(o)));
  }
  {
    json::Object o;
    o.emplace_back("req_per_sec", Round0(tel.m.req_per_sec));
    o.emplace_back("requests", static_cast<std::int64_t>(tel.m.requests));
    o.emplace_back("spans", static_cast<std::int64_t>(tel.spans));
    o.emplace_back("throughput_ratio", Round2(tel_ratio));
    root.emplace_back("telemetry_overhead", json::Value(std::move(o)));
  }

  const char* path = std::getenv("GRUNT_BENCH_CLUSTER_JSON");
  if (path == nullptr || path[0] == '\0') path = "BENCH_cluster.json";
  try {
    json::WriteFile(path, json::Value(std::move(root)));
  } catch (const json::Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", path);

  // Per-run metrics artifact: the full registry snapshot from the telemetry
  // run (cluster/service gauges, engine counters, bench.* counters).
  const char* metrics_path = std::getenv("GRUNT_METRICS_JSON");
  if (metrics_path != nullptr && metrics_path[0] != '\0') {
    try {
      json::WriteFile(metrics_path, tel.metrics);
    } catch (const json::Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", metrics_path);
  }
  return 0;
}
