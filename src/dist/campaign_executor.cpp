#include "dist/campaign_executor.h"

#include <exception>

#include "dist/job_registry.h"

namespace grunt::dist {

CampaignExecutor::CampaignExecutor(ExecutorConfig cfg) : pool_(cfg.workers) {}

std::vector<JobOutcome> CampaignExecutor::RunAll(
    const std::string& kind, const std::vector<JobSpec>& jobs) {
  const std::size_t n = jobs.size();
  if (n == 0) return {};
  std::vector<JobOutcome> outcomes(n);
  pool_.ForEachIndex(n, [&](std::size_t i) {
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
  });
  // The pool reports as one worker.
  if (stats_.empty()) stats_.emplace_back();
  stats_[0].jobs += n;
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

}  // namespace grunt::dist
