#include "dist/campaign_executor.h"

#include <chrono>
#include <cmath>
#include <exception>

#include "dist/job_registry.h"

namespace grunt::dist {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

}  // namespace

CampaignExecutor::CampaignExecutor(ExecutorConfig cfg)
    : pool_(cfg.workers), bus_(cfg.bus) {
  if (bus_ != nullptr) {
    auto& reg = bus_->metrics();
    metrics_.jobs_ok = reg.Counter("campaign.jobs_ok");
    metrics_.jobs_failed = reg.Counter("campaign.jobs_failed");
    metrics_.job_ms = reg.Histogram(
        "campaign.job_ms",
        {1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000});
  }
}

std::vector<JobOutcome> CampaignExecutor::RunAll(
    const std::string& kind, const std::vector<JobSpec>& jobs) {
  const std::size_t n = jobs.size();
  if (n == 0) return {};
  std::vector<JobOutcome> outcomes(n);
  std::vector<double> latency_ms(n, 0.0);
  pool_.ForEachIndex(n, [&](std::size_t i) {
    const auto t0 = Clock::now();
    try {
      outcomes[i].result = RunRegisteredJob(kind, jobs[i].args,
                                            jobs[i].seed);
      outcomes[i].ok = true;
    } catch (const std::exception& e) {
      outcomes[i].error = "job " + std::to_string(i) + " of kind \"" +
                          kind + "\" failed on the thread backend: " +
                          e.what();
    } catch (...) {
      outcomes[i].error = "job " + std::to_string(i) + " of kind \"" +
                          kind +
                          "\" failed on the thread backend: non-exception "
                          "throw";
    }
    latency_ms[i] = MsSince(t0);
  });
  // The bus channels are not thread-safe, so stats and events are recorded
  // after the barrier, in job-index order, as worker 0.
  if (stats_.empty()) {
    stats_.emplace_back();
    if (bus_ != nullptr) {
      auto& reg = bus_->metrics();
      metrics_.worker_jobs = reg.Counter("campaign.worker.0.jobs");
      // Stays 0, like WorkerStats::steals; registered so the snapshot keeps
      // its per-worker shape.
      reg.Counter("campaign.worker.0.steals");
      metrics_.worker_busy_ms = reg.Gauge("campaign.worker.0.busy_ms");
    }
  }
  WorkerStats& st = stats_[0];
  for (std::size_t i = 0; i < n; ++i) {
    st.jobs += 1;
    if (!outcomes[i].ok) st.failures += 1;
    st.busy_ms += latency_ms[i];
    if (bus_ == nullptr) continue;
    auto& reg = bus_->metrics();
    reg.Add(metrics_.worker_jobs);
    reg.Set(metrics_.worker_busy_ms, st.busy_ms);
    reg.Add(outcomes[i].ok ? metrics_.jobs_ok : metrics_.jobs_failed);
    reg.Observe(metrics_.job_ms, latency_ms[i]);
    telemetry::CampaignJobEvent ev;
    ev.job_index = i;
    ev.ok = outcomes[i].ok;
    ev.latency_ms = latency_ms[i];
    bus_->campaign_job().Publish(ev);
  }
  return outcomes;
}

std::vector<json::Value> CampaignExecutor::Run(
    const std::string& kind, const std::vector<JobSpec>& jobs) {
  std::vector<JobOutcome> outcomes = RunAll(kind, jobs);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) throw CampaignError(outcomes[i].error, i, kind);
  }
  std::vector<json::Value> results;
  results.reserve(outcomes.size());
  for (auto& o : outcomes) results.push_back(std::move(o.result));
  return results;
}

json::Value CampaignExecutor::StatsJson() const {
  json::Object root;
  root.emplace_back("backend", "thread");
  root.emplace_back("workers", static_cast<std::int64_t>(workers()));
  json::Array per;
  for (const auto& st : stats_) {
    json::Object o;
    o.emplace_back("worker", static_cast<std::int64_t>(st.worker));
    o.emplace_back("jobs", static_cast<std::int64_t>(st.jobs));
    o.emplace_back("steals", static_cast<std::int64_t>(st.steals));
    o.emplace_back("failures", static_cast<std::int64_t>(st.failures));
    o.emplace_back("busy_ms",
                   std::round(st.busy_ms * 1000.0) / 1000.0);
    per.push_back(json::Value(std::move(o)));
  }
  root.emplace_back("per_worker", json::Value(std::move(per)));
  return json::Value(std::move(root));
}

}  // namespace grunt::dist
