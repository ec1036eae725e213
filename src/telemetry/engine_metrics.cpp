#include "telemetry/engine_metrics.h"

namespace grunt::telemetry {

namespace {

using Stats = sim::Simulation::EngineStats;

/// One gauge per EngineStats field, in snapshot order.
struct Field {
  const char* name;
  double (*read)(const Stats&);
};

constexpr Field kFields[] = {
    {"events_scheduled",
     [](const Stats& s) { return static_cast<double>(s.events_scheduled); }},
    {"inline_callbacks",
     [](const Stats& s) { return static_cast<double>(s.inline_callbacks); }},
    {"heap_callbacks",
     [](const Stats& s) { return static_cast<double>(s.heap_callbacks); }},
    {"cancelled_popped",
     [](const Stats& s) { return static_cast<double>(s.cancelled_popped); }},
    {"cancelled_purged",
     [](const Stats& s) { return static_cast<double>(s.cancelled_purged); }},
    {"compactions",
     [](const Stats& s) { return static_cast<double>(s.compactions); }},
    {"slab_chunks",
     [](const Stats& s) { return static_cast<double>(s.slab_chunks); }},
    {"wheel.scheduled",
     [](const Stats& s) { return static_cast<double>(s.wheel_scheduled); }},
    {"wheel.cancelled_in_bucket",
     [](const Stats& s) { return static_cast<double>(s.wheel_cancelled); }},
    {"wheel.cascades",
     [](const Stats& s) { return static_cast<double>(s.wheel_cascades); }},
    {"wheel.to_heap",
     [](const Stats& s) { return static_cast<double>(s.wheel_to_heap); }},
    {"wheel.occupancy",
     [](const Stats& s) { return static_cast<double>(s.wheel_occupancy); }},
};

}  // namespace

void RegisterEngineGauges(MetricsRegistry& registry,
                          const sim::Simulation& sim,
                          const std::string& prefix) {
  for (const Field& f : kFields) {
    registry.Gauge(prefix + "." + f.name,
                   [&sim, read = f.read] { return read(sim.stats()); });
  }
}

}  // namespace grunt::telemetry
