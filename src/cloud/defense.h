#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cloud/monitor.h"
#include "microsvc/cluster.h"

namespace grunt::cloud {

/// The defense direction the paper sketches in Sec VI ("Detection of
/// millibottlenecks and suspicious requests"), made concrete:
///
///  1. the gateway log is bucketed per (request type, 100 ms); buckets where
///     one type arrives far above its Poisson background are "volleys" —
///     Grunt bursts are synchronized, legitimate arrivals are not;
///  2. volleys are confirmed against a FINE-grained (100 ms) resource
///     monitor: a genuine attack volley is followed by a millibottleneck
///     within a short window (this is what requires the expensive
///     fine-grained monitoring the paper discusses);
///  3. sessions whose requests predominantly arrive inside volleys are
///     flagged — normal users have no statistical correlation with the
///     bursts, Grunt bots (one request per burst each) have ~100%.
///
/// Detection only: enforcement (blocking flagged IPs) is an orthogonal
/// IPS concern.
class CorrelationDefense {
 public:
  /// `fine_monitor` may be null: volley confirmation is then skipped and
  /// only the arrival-pattern statistic is available.
  CorrelationDefense(microsvc::Cluster& cluster,
                     const ResourceMonitor* fine_monitor);
  /// Unsubscribes from the cluster's bus, so the cluster may outlive the
  /// defense.
  ~CorrelationDefense();
  // The bus handlers capture `this`.
  CorrelationDefense(const CorrelationDefense&) = delete;
  CorrelationDefense& operator=(const CorrelationDefense&) = delete;

  void Start();
  void Stop();

  /// One judged session.
  struct Verdict {
    std::uint64_t client_id = 0;
    std::size_t requests = 0;
    std::size_t in_volley = 0;
    double participation = 0;  ///< in_volley / requests
    bool flagged = false;
  };

  /// Offline analysis over [from, to): judges every session active in the
  /// window. Sorted by participation, highest first.
  std::vector<Verdict> Analyze(SimTime from, SimTime to) const;

  /// Flagged sessions only (participation above the flag fraction, 0.8).
  std::vector<Verdict> FlaggedSessions(SimTime from, SimTime to) const;

  /// Volleys in [from, to): total, how many were confirmed by a subsequent
  /// millibottleneck (== total when no fine monitor is wired), and how many
  /// by a subsequent legit-error spike (0 unless fault-tolerance policies
  /// are deployed — with none, requests queue instead of failing).
  struct VolleyStats {
    std::size_t volleys = 0;
    std::size_t confirmed = 0;
    std::size_t error_confirmed = 0;
  };
  VolleyStats Volleys(SimTime from, SimTime to) const;

 private:
  using BucketKey = std::pair<microsvc::RequestTypeId, std::int64_t>;
  bool InVolley(microsvc::RequestTypeId type, SimTime at) const;

  microsvc::Cluster& cluster_;
  const ResourceMonitor* fine_;
  bool running_ = false;
  telemetry::SubscriptionId submit_sub_ = 0;
  telemetry::SubscriptionId completion_sub_ = 0;

  struct SubmissionLog {
    std::vector<std::pair<microsvc::RequestTypeId, SimTime>> requests;
  };
  std::map<BucketKey, std::int32_t> bucket_counts_;
  std::map<std::uint64_t, SubmissionLog> sessions_;
  std::vector<SimTime> legit_errors_;  ///< completion times of failed legits
};

}  // namespace grunt::cloud
