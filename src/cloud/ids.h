#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cloud/monitor.h"
#include "microsvc/cluster.h"
#include "sim/ring_buffer.h"

namespace grunt::cloud {

/// Rule families of the gateway IDS/IPS in the paper's evaluation: a
/// Snort-style behavioral rule (inter-request interval), an AWS-Shield-style
/// per-IP rate window, and a resource-saturation rule fed by the coarse
/// monitor. Content/protocol rule families cannot fire on Grunt traffic
/// (structurally legitimate HTTP), which `content_checks_passed` records.
enum class AlertRule : std::uint8_t {
  kInterRequestInterval,  ///< two requests from one session < min interval
  kRateLimit,             ///< per-IP requests in window over limit
  kResourceSaturation,    ///< sustained saturation at monitor granularity
  kServiceDegradation,    ///< long RT observed (no client attribution)
};
inline constexpr std::size_t kAlertRuleCount = 4;

const char* ToString(AlertRule rule);

struct Alert {
  SimTime at = 0;
  AlertRule rule{};
  std::uint64_t client_id = 0;  ///< 0 when the rule has no client attribution
  /// The rule's evidence: the interval in ms (inter-request), the request
  /// count in the window (rate limit), the service id (saturation), or the
  /// windowed mean legit RT in ms (degradation).
  double value = 0;
};

/// Human-readable one-line rendering of an alert, for logs and examples.
std::string Describe(const Alert& alert);

/// Gateway intrusion detection/prevention, fed by every submitted request.
///
/// The per-submit path is O(1) amortized and allocation-free once its
/// tables have grown: sessions are dense POD records behind an
/// open-addressing index, and the rate rule's sliding windows share one
/// FIFO of request times (see OnSubmit for why that is exact).
class Ids {
 public:
  /// Sessions sending two consecutive requests closer than this are flagged
  /// (paper: 95% CI lower bound of legit inter-request times, rounded down
  /// to 3 s).
  static constexpr SimDuration kMinInterRequest = Sec(3);
  /// Per-IP request budget per rate window (AWS Shield-style).
  static constexpr std::int64_t kRateLimit = 100;
  static constexpr SimDuration kRateWindow = Sec(300);
  /// Resource rule: utilization >= this for >= consecutive samples.
  static constexpr double kSaturationThreshold = 0.95;
  static constexpr std::int32_t kSaturationSamples = 3;
  /// Degradation rule: windowed mean legit RT above this (ms).
  static constexpr double kDegradationRtMs = 1000.0;
  /// Only sessions with at least this many requests are judged by the
  /// inter-request rule (one-shot clients are indistinguishable from new
  /// visitors).
  static constexpr std::int32_t kMinSessionRequests = 2;

  /// Empty: the rules' tuning is fixed (the constants above). Kept only so
  /// that perfbench's `Ids(cluster, monitor, rt, Config{})` still compiles.
  struct Config {};

  /// `monitor`/`rt_monitor` may be null; the corresponding rules are then
  /// disabled.
  Ids(microsvc::Cluster& cluster, const ResourceMonitor* monitor,
      const ResponseTimeMonitor* rt_monitor, Config = {});
  /// Unsubscribes from the cluster's bus and cancels the evaluation timer,
  /// so the cluster may outlive the IDS.
  ~Ids();
  // The bus handler and the timer capture `this`.
  Ids(const Ids&) = delete;
  Ids& operator=(const Ids&) = delete;

  void Start();
  void Stop();

  const std::vector<Alert>& alerts() const { return alerts_; }
  std::size_t CountAlerts(AlertRule rule) const {
    return rule_counts_[static_cast<std::size_t>(rule)];
  }

  /// Alerts whose client attribution points at an actual attack/probe
  /// session — i.e. detections that would let an operator block the attack.
  std::size_t attributed_attack_alerts() const {
    return attributed_attack_alerts_;
  }

  /// True: no content-based or protocol-based rule can fire on this traffic
  /// (requests are well-formed by construction). Recorded for reporting.
  bool content_checks_passed() const { return true; }

 private:
  void OnSubmit(microsvc::RequestClass cls, std::uint64_t client_id,
                SimTime at);
  void Evaluate();
  void Raise(AlertRule rule, std::uint64_t client_id, double value,
             bool attack_attributed);
  /// Index of `client_id`'s session record, created on first sight.
  std::uint32_t SessionFor(std::uint64_t client_id);
  void GrowIndex();

  microsvc::Cluster& cluster_;
  const ResourceMonitor* monitor_;
  const ResponseTimeMonitor* rt_monitor_;
  sim::EventHandle timer_;
  telemetry::SubscriptionId submit_sub_ = 0;
  bool running_ = false;

  struct Session {
    SimTime last_request = 0;
    std::int64_t total_requests = 0;
    /// Live rate-window entries of this session (current epoch only).
    std::int64_t in_window = 0;
    /// Bumped when the rate budget resets; FIFO entries from an older
    /// epoch no longer count against the session.
    std::uint32_t epoch = 0;
    bool is_attack = false;  ///< ground-truth tag, only for scoring
  };
  std::vector<Session> sessions_;

  /// Open-addressing (linear probing) index from client id to session,
  /// power-of-two sized and at most half full. Client ids are arbitrary
  /// 64-bit values, so the key lives in the slot.
  static constexpr std::uint32_t kNoSession = UINT32_MAX;
  struct IndexSlot {
    std::uint64_t client_id = 0;
    std::uint32_t session = kNoSession;
  };
  std::vector<IndexSlot> index_;
  unsigned index_shift_ = 64;  ///< 64 - log2(index_.size())

  /// Requests not yet expired from the rate window, all sessions, in
  /// submit (= time) order; stale-epoch entries no longer count.
  struct WindowEntry {
    SimTime at = 0;
    std::uint32_t session = 0;
    std::uint32_t epoch = 0;
  };
  sim::RingBuffer<WindowEntry> window_;

  std::vector<std::size_t> next_util_sample_;
  std::vector<std::int32_t> saturated_ticks_;
  std::size_t next_rt_sample_ = 0;
  std::vector<Alert> alerts_;
  std::array<std::size_t, kAlertRuleCount> rule_counts_{};
  std::size_t attributed_attack_alerts_ = 0;
};

}  // namespace grunt::cloud
