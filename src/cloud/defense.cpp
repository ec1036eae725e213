#include "cloud/defense.h"

#include <algorithm>
#include <stdexcept>

namespace grunt::cloud {

CorrelationDefense::CorrelationDefense(microsvc::Cluster& cluster,
                                       const ResourceMonitor* fine_monitor,
                                       Config cfg)
    : cluster_(cluster), fine_(fine_monitor), cfg_(cfg) {
  if (cfg_.bucket <= 0 || cfg_.volley_threshold < 2 ||
      cfg_.flag_fraction <= 0 || cfg_.flag_fraction > 1) {
    throw std::invalid_argument("CorrelationDefense: bad config");
  }
  submit_sub_ = cluster_.telemetry().submit().Subscribe(
      [this](const telemetry::RequestSubmit& e) {
        if (!running_) return;
        ++bucket_counts_[{e.type, e.at / cfg_.bucket}];
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
  auto it = bucket_counts_.find({type, at / cfg_.bucket});
  return it != bucket_counts_.end() && it->second >= cfg_.volley_threshold;
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
    if (v.requests < static_cast<std::size_t>(cfg_.min_requests)) continue;
    v.participation =
        static_cast<double>(v.in_volley) / static_cast<double>(v.requests);
    v.flagged = v.participation > cfg_.flag_fraction;
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
    const SimTime at = key.second * cfg_.bucket;
    if (count < cfg_.volley_threshold || at < from || at >= to) continue;
    ++stats.volleys;
    const auto lo = std::lower_bound(legit_errors_.begin(),
                                     legit_errors_.end(), at);
    const auto hi = std::lower_bound(legit_errors_.begin(),
                                     legit_errors_.end(),
                                     at + cfg_.confirm_window);
    if (hi - lo >= cfg_.error_confirm_min) ++stats.error_confirmed;
    if (fine_ == nullptr) {
      ++stats.confirmed;
      continue;
    }
    bool hot = false;
    for (std::size_t i = 0; i < cluster_.service_count() && !hot; ++i) {
      const auto sid = static_cast<microsvc::ServiceId>(i);
      hot = fine_->cpu_util(sid).WindowMax(at, at + cfg_.confirm_window) >=
            cfg_.saturation_util;
    }
    stats.confirmed += hot;
  }
  return stats;
}

}  // namespace grunt::cloud
