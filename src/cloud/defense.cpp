#include "cloud/defense.h"

#include <algorithm>

namespace grunt::cloud {
namespace {

/// Width of one gateway-log bucket.
constexpr SimDuration kBucket = Ms(100);
/// Same-type arrivals within one bucket to call it a volley. Should sit
/// well above the per-type Poisson rate per bucket.
constexpr std::int32_t kVolleyThreshold = 20;
/// Flag sessions with more than this fraction of requests in volleys.
constexpr double kFlagFraction = 0.8;
/// Sessions with fewer requests than this in the analysis window are
/// not judged — one request proves nothing, and judging one-shot
/// sessions floods the verdict with false positives. (Grunt's one-shot
/// bots evade THIS statistic; bot reuse across bursts is what exposes
/// them, and a high rate of fresh one-shot sessions inside volleys is a
/// complementary signal an operator can rate-limit on.)
constexpr std::int32_t kMinRequests = 3;
/// A volley is "confirmed" when some service saturates within this
/// window after it (requires a fine monitor).
constexpr SimDuration kConfirmWindow = Ms(600);
constexpr double kSaturationUtil = 0.97;
/// Error-based confirmation (no fine monitor needed): a volley is also
/// confirmed when at least this many legitimate requests fail (timeout /
/// rejection / deadline) within kConfirmWindow after it. Once the
/// cluster deploys RPC timeouts and load shedding, a Grunt burst leaves
/// this cheap fingerprint in the gateway's own error log.
constexpr std::int32_t kErrorConfirmMin = 3;

}  // namespace

CorrelationDefense::CorrelationDefense(microsvc::Cluster& cluster,
                                       const ResourceMonitor* fine_monitor)
    : cluster_(cluster), fine_(fine_monitor) {
  submit_sub_ = cluster_.telemetry().submit().Subscribe(
      [this](const telemetry::RequestSubmit& e) {
        if (!running_) return;
        ++bucket_counts_[{e.type, e.at / kBucket}];
        sessions_[e.client_id].requests.emplace_back(e.type, e.at);
      });
  completion_sub_ = cluster_.telemetry().completion().Subscribe(
      [this](const microsvc::CompletionRecord& r) {
    if (!running_) return;
    if (r.cls != microsvc::RequestClass::kLegit) return;
    if (r.outcome == microsvc::Outcome::kOk) return;
    legit_errors_.push_back(r.end);  // completion order => sorted
  });
}

CorrelationDefense::~CorrelationDefense() {
  cluster_.telemetry().submit().Unsubscribe(submit_sub_);
  cluster_.telemetry().completion().Unsubscribe(completion_sub_);
}

void CorrelationDefense::Start() { running_ = true; }
void CorrelationDefense::Stop() { running_ = false; }

bool CorrelationDefense::InVolley(microsvc::RequestTypeId type,
                                  SimTime at) const {
  auto it = bucket_counts_.find({type, at / kBucket});
  return it != bucket_counts_.end() && it->second >= kVolleyThreshold;
}

std::vector<CorrelationDefense::Verdict> CorrelationDefense::Analyze(
    SimTime from, SimTime to) const {
  std::vector<Verdict> out;
  for (const auto& [client, log] : sessions_) {
    Verdict v;
    v.client_id = client;
    for (const auto& [type, at] : log.requests) {
      if (at < from || at >= to) continue;
      ++v.requests;
      v.in_volley += InVolley(type, at);
    }
    if (v.requests < static_cast<std::size_t>(kMinRequests)) continue;
    v.participation =
        static_cast<double>(v.in_volley) / static_cast<double>(v.requests);
    v.flagged = v.participation > kFlagFraction;
    out.push_back(v);
  }
  std::sort(out.begin(), out.end(), [](const Verdict& a, const Verdict& b) {
    if (a.participation != b.participation) {
      return a.participation > b.participation;
    }
    return a.client_id < b.client_id;
  });
  return out;
}

std::vector<CorrelationDefense::Verdict> CorrelationDefense::FlaggedSessions(
    SimTime from, SimTime to) const {
  auto all = Analyze(from, to);
  all.erase(std::remove_if(all.begin(), all.end(),
                           [](const Verdict& v) { return !v.flagged; }),
            all.end());
  return all;
}

CorrelationDefense::VolleyStats CorrelationDefense::Volleys(
    SimTime from, SimTime to) const {
  VolleyStats stats;
  for (const auto& [key, count] : bucket_counts_) {
    const SimTime at = key.second * kBucket;
    if (count < kVolleyThreshold || at < from || at >= to) continue;
    ++stats.volleys;
    const auto lo = std::lower_bound(legit_errors_.begin(),
                                     legit_errors_.end(), at);
    const auto hi = std::lower_bound(legit_errors_.begin(),
                                     legit_errors_.end(),
                                     at + kConfirmWindow);
    if (hi - lo >= kErrorConfirmMin) ++stats.error_confirmed;
    if (fine_ == nullptr) {
      ++stats.confirmed;
      continue;
    }
    bool hot = false;
    for (std::size_t i = 0; i < cluster_.service_count() && !hot; ++i) {
      const auto sid = static_cast<microsvc::ServiceId>(i);
      hot = fine_->cpu_util(sid).WindowMax(at, at + kConfirmWindow) >=
            kSaturationUtil;
    }
    stats.confirmed += hot;
  }
  return stats;
}

}  // namespace grunt::cloud
