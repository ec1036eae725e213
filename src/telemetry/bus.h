#pragma once

// The telemetry plane's spine: typed publish/subscribe channels with
// synchronous dispatch in subscriber-registration order.
//
// Determinism rules (DESIGN §8):
//  * Publish() invokes handlers inline, in the order they subscribed — no
//    events, no queues, no RNG. Two runs that register the same subscribers
//    in the same order observe byte-identical streams.
//  * A handler subscribed during a dispatch does not see the publish that
//    was in flight; it sees every later one.
//  * Unsubscribe tombstones the entry (registration order of the survivors
//    is preserved) and is safe mid-dispatch, including from inside the
//    handler being removed.
//  * A channel with no subscribers costs its emitter one integer compare;
//    emitters guard event construction behind has_subscribers().

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "telemetry/events.h"
#include "telemetry/metrics.h"

namespace grunt::telemetry {

/// Identifies one subscription on one channel. 0 is never issued.
using SubscriptionId = std::uint64_t;

template <class Event>
class Channel {
 public:
  using Handler = std::function<void(const Event&)>;

  SubscriptionId Subscribe(Handler handler) {
    const SubscriptionId id = next_id_++;
    entries_.push_back(Entry{id, std::move(handler)});
    ++live_;
    return id;
  }

  /// Removes a subscription; false when `id` is unknown (or already gone).
  bool Unsubscribe(SubscriptionId id) {
    for (auto& e : entries_) {
      if (e.id == id && e.handler) {
        e.handler = nullptr;  // tombstone: survivors keep their order
        --live_;
        if (dispatch_depth_ == 0) Compact();
        return true;
      }
    }
    return false;
  }

  bool has_subscribers() const { return live_ > 0; }
  std::size_t subscriber_count() const { return live_; }

  void Publish(const Event& event) {
    if (live_ == 0) return;
    ++dispatch_depth_;
    // Snapshot the length: handlers subscribed during this dispatch wait
    // for the next publish.
    const std::size_t n = entries_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (entries_[i].handler) entries_[i].handler(event);
    }
    if (--dispatch_depth_ == 0 && live_ < entries_.size()) Compact();
  }

 private:
  struct Entry {
    SubscriptionId id = 0;
    Handler handler;
  };

  void Compact() {
    std::erase_if(entries_, [](const Entry& e) { return !e.handler; });
  }

  std::vector<Entry> entries_;
  std::size_t live_ = 0;
  std::uint32_t dispatch_depth_ = 0;
  SubscriptionId next_id_ = 1;
};

/// One bus per Cluster: the typed channels every observer subscribes to,
/// plus the metrics registry the same observers read gauges from. The
/// channel set is the catalog in DESIGN §8.
class TelemetryBus {
 public:
  TelemetryBus() = default;
  TelemetryBus(const TelemetryBus&) = delete;
  TelemetryBus& operator=(const TelemetryBus&) = delete;

  Channel<RequestSubmit>& submit() { return submit_; }
  Channel<CompletionRecord>& completion() { return completion_; }
  Channel<SpanEvent>& span() { return span_; }
  Channel<QueueEvent>& queue_depth() { return queue_depth_; }
  Channel<BreakerTransition>& breaker() { return breaker_; }
  Channel<ScaleEvent>& scale() { return scale_; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  Channel<RequestSubmit> submit_;
  Channel<CompletionRecord> completion_;
  Channel<SpanEvent> span_;
  Channel<QueueEvent> queue_depth_;
  Channel<BreakerTransition> breaker_;
  Channel<ScaleEvent> scale_;
  MetricsRegistry metrics_;
};

}  // namespace grunt::telemetry
