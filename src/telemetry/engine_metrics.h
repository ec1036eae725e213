#pragma once

// Bridges the engine's EngineStats counters into the metrics plane as live
// callback gauges for a running simulation.

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

}  // namespace grunt::telemetry
