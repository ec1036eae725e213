#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "microsvc/types.h"
#include "telemetry/bus.h"

namespace grunt::trace {

/// One service visit inside a request's execution, as recorded by the
/// tracing backend (the paper uses Jaeger for ground truth, Sec V-C).
struct HopSpan {
  microsvc::ServiceId service = microsvc::kInvalidService;
  std::uint32_t hop_index = 0;
  SimTime arrived = 0;
  SimTime slot_granted = 0;
  SimTime finished = 0;

  SimDuration queue_wait() const { return slot_granted - arrived; }
  SimDuration total() const { return finished - arrived; }
};

/// The recorded execution of one request (its execution-history graph,
/// Fig 2(a); for critical-path chains the spans are totally ordered).
struct RequestTrace {
  std::uint64_t request_id = 0;
  microsvc::RequestTypeId type = microsvc::kInvalidRequestType;
  microsvc::RequestClass cls = microsvc::RequestClass::kLegit;
  std::vector<HopSpan> hops;  ///< indexed by hop position

  bool complete() const {
    if (hops.empty()) return false;
    for (const auto& h : hops) {
      if (h.service == microsvc::kInvalidService) return false;
    }
    return true;
  }
};

/// Collects spans from the cluster's telemetry span channel and groups them
/// per request. Admin-side only: the attack library never touches this
/// (blackbox boundary).
class Tracer {
 public:
  /// Subscribes to `bus`'s span channel (usually cluster.telemetry()).
  /// Call at most once per bus; the bus must not outlive this Tracer
  /// unless Detach() is called first.
  void Attach(telemetry::TelemetryBus& bus);
  /// Undoes Attach (no-op when not attached).
  void Detach();

  void OnSpan(const telemetry::SpanEvent& span);

  std::size_t span_count() const { return span_count_; }

  const RequestTrace* Find(std::uint64_t request_id) const;

  /// All traces whose spans have all been received.
  std::vector<const RequestTrace*> CompletedTraces() const;

  /// Spans that arrived at `service` within [from, to), per second.
  double ArrivalRate(microsvc::ServiceId service, SimTime from,
                     SimTime to) const;

  /// Drops all recorded traces (long benches trim periodically).
  void Clear();

 private:
  telemetry::TelemetryBus* bus_ = nullptr;
  telemetry::SubscriptionId sub_ = 0;
  std::unordered_map<std::uint64_t, RequestTrace> traces_;
  std::size_t span_count_ = 0;
};

}  // namespace grunt::trace
