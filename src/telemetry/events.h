#pragma once

// Event types carried by the TelemetryBus (bus.h). Everything an observer of
// the cluster can see — monitors, IDS, autoscaler, defenses, tracers — is
// one of these records, published synchronously at the point where the
// observed thing happens. The structs are plain data: emitters pay
// nothing to construct them unless a channel has subscribers.

#include <cstdint>

#include "microsvc/types.h"
#include "util/time_types.h"

namespace grunt::telemetry {

/// A request entering the cluster at the gateway (one per Cluster::Submit).
/// The IDS and the correlation defense key their session state off this.
struct RequestSubmit {
  microsvc::RequestTypeId type = microsvc::kInvalidRequestType;
  microsvc::RequestClass cls = microsvc::RequestClass::kLegit;
  std::uint64_t client_id = 0;
  SimTime at = 0;
};

/// A finished end-to-end request as observed at the gateway. Every submitted
/// request produces exactly one record, whatever its outcome.
struct CompletionRecord {
  std::uint64_t request_id = 0;
  microsvc::RequestTypeId type = microsvc::kInvalidRequestType;
  microsvc::RequestClass cls = microsvc::RequestClass::kLegit;
  bool heavy = false;
  std::uint64_t client_id = 0;
  SimTime start = 0;  ///< submitted by the client
  SimTime end = 0;    ///< response (or failure) received by the client
  microsvc::Outcome outcome = microsvc::Outcome::kOk;
  /// Total retry attempts spent across every hop of the chain.
  std::int32_t retries = 0;
};

/// One completed hop of a request's execution, as a tracing system (Jaeger in
/// the paper) would record it. Emitted when the hop replies upstream.
/// Admin-side ground truth; the attack library never sees it (blackbox
/// boundary, DESIGN §4.3).
struct SpanEvent {
  std::uint64_t request_id = 0;
  microsvc::RequestTypeId type = microsvc::kInvalidRequestType;
  microsvc::RequestClass cls = microsvc::RequestClass::kLegit;
  microsvc::ServiceId service = microsvc::kInvalidService;
  std::uint32_t hop_index = 0;
  SimTime arrived = 0;       ///< call reached the service (possibly queued)
  SimTime slot_granted = 0;  ///< thread slot acquired
  SimTime finished = 0;      ///< replied upstream, slot released
};

/// A change in a service's slot waiting line: an arrival parked behind a
/// full thread pool, or one rejected outright by the bounded queue.
struct QueueEvent {
  enum class Kind : std::uint8_t {
    kEnqueued = 0,  ///< arrival is waiting for a slot
    kRejected = 1,  ///< bounded arrival queue full, load shed
  };
  microsvc::ServiceId service = microsvc::kInvalidService;
  Kind kind = Kind::kEnqueued;
  SimTime at = 0;
  std::int32_t slots_in_use = 0;
  std::int32_t waiting = 0;  ///< queue depth after the event
};

/// A per-caller circuit breaker changing state on the edge into `service`.
/// "open" follows the breaker's effective behaviour: a successful half-open
/// trial closes it, a failed one re-opens it.
struct BreakerTransition {
  microsvc::ServiceId service = microsvc::kInvalidService;  ///< callee
  microsvc::ServiceId caller = microsvc::kInvalidService;
  SimTime at = 0;
  bool open = false;
  std::int32_t consecutive_failures = 0;
};

/// One autoscaler decision taking effect (Fig 14 / Fig 15b analysis).
struct ScaleEvent {
  SimTime at = 0;
  microsvc::ServiceId service = microsvc::kInvalidService;
  std::int32_t delta = 0;  ///< +1 scale-out, -1 scale-in
  std::int32_t replicas_after = 0;
};

}  // namespace grunt::telemetry
