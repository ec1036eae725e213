#pragma once

// Bridges the engine's EngineStats counters into the metrics plane: live
// callback gauges for a running simulation, and a one-shot registry-backed
// JSON export for bench emitters (the single JSON path for engine counters —
// bench_micro_engine and bench_micro_cluster both route through it).

#include <string>

#include "sim/simulation.h"
#include "telemetry/metrics.h"

namespace grunt::telemetry {

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
