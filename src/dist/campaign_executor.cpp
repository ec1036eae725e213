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

CampaignExecutor::CampaignExecutor(ExecutorConfig cfg) : pool_(cfg.workers) {}

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
  // Summed after the barrier, in job-index order, as worker 0: the pool
  // reports as one worker, and busy_ms adds up in one order at any thread
  // count.
  if (stats_.empty()) stats_.emplace_back();
  WorkerStats& st = stats_[0];
  for (std::size_t i = 0; i < n; ++i) {
    st.jobs += 1;
    if (!outcomes[i].ok) st.failures += 1;
    st.busy_ms += latency_ms[i];
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
