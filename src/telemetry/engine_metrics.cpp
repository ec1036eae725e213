#include "telemetry/engine_metrics.h"

namespace grunt::telemetry {

namespace {

using Stats = sim::Simulation::EngineStats;

/// Field catalog shared by the gauge and JSON exporters so the two layouts
/// can never drift apart.
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

json::Value EngineStatsJson(const Stats& stats) {
  MetricsRegistry reg;
  for (const Field& f : kFields) {
    reg.Set(reg.Gauge(f.name), f.read(stats));
  }
  return reg.Snapshot();
}

json::Value WheelStatsJson(const Stats& stats) {
  json::Value full = EngineStatsJson(stats);
  return full.At("wheel");
}

}  // namespace grunt::telemetry
