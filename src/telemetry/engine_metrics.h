#pragma once

// Bridges the engine's EngineStats counters into the metrics plane: live
// callback gauges for a running simulation, and a one-shot registry-backed
// JSON export for bench emitters (the single JSON path for engine counters —
// bench_micro_engine and bench_micro_cluster both route through it).

#include <string>

#include "sim/simulation.h"
#include "telemetry/bus.h"
#include "telemetry/metrics.h"

namespace grunt::telemetry {

/// Periodically publishes a point-in-time EngineStats snapshot on the bus's
/// engine_stats channel, turning the engine's cumulative counters into an
/// observable stream (bench rigs enable it via GRUNT_ENGINE_STATS_TICK_MS).
/// A tick period of at least Simulation::kFarDelay routes through the timing
/// wheel and stays out of the heap the workload under test is exercising;
/// when the channel has no subscribers the tick costs one integer compare.
class EngineStatsTicker {
 public:
  EngineStatsTicker(sim::Simulation& sim, TelemetryBus& bus)
      : sim_(sim), bus_(bus) {}
  ~EngineStatsTicker() { Stop(); }
  EngineStatsTicker(const EngineStatsTicker&) = delete;
  EngineStatsTicker& operator=(const EngineStatsTicker&) = delete;

  void Start(SimDuration period);
  void Stop();
  bool running() const { return running_; }

 private:
  sim::Simulation& sim_;
  TelemetryBus& bus_;
  sim::EventHandle timer_;
  bool running_ = false;
};

/// Registers one callback gauge per EngineStats field under `prefix`
/// ("<prefix>.events_scheduled", …, "<prefix>.wheel.occupancy"), reading
/// `sim.stats()` at snapshot time. `sim` must outlive the registry's reads.
void RegisterEngineGauges(MetricsRegistry& registry,
                          const sim::Simulation& sim,
                          const std::string& prefix = "engine");

/// A point-in-time EngineStats as a nested JSON object (same field layout as
/// RegisterEngineGauges, without the prefix), exported through a
/// MetricsRegistry snapshot so formatting matches every other metrics dump.
json::Value EngineStatsJson(const sim::Simulation::EngineStats& stats);

/// The wheel-only subobject of EngineStatsJson (bench_micro_cluster's
/// timer_heavy section reports just the wheel counters).
json::Value WheelStatsJson(const sim::Simulation::EngineStats& stats);

}  // namespace grunt::telemetry
