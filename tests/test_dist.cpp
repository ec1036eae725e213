// Tests for the campaign layer (src/dist): the job registry and the
// CampaignExecutor — including the determinism contract (bit-identical
// results at any worker count), error context, and the cumulative job count.

#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <vector>

#include "dist/campaign_executor.h"
#include "dist/job_registry.h"
#include "util/json.h"

namespace grunt::dist {
namespace {

// ---- test job kinds ------------------------------------------------------

void RegisterTestKinds() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto& reg = JobRegistry::Global();
    // Deterministic pure function of (args, seed).
    reg.Register("t_echo", [](const json::Value& args, std::uint64_t seed) {
      json::Object o;
      o.emplace_back("sum", args.At("x").AsInt64() +
                                static_cast<std::int64_t>(seed));
      o.emplace_back("tag", args.At("tag").AsString());
      return json::Value(std::move(o));
    });
    // Throws for odd seeds.
    reg.Register("t_flaky", [](const json::Value& args,
                               std::uint64_t seed) -> json::Value {
      if (seed % 2 == 1) {
        throw std::runtime_error("boom seed " + std::to_string(seed));
      }
      return args;
    });
  });
}

std::vector<JobSpec> EchoJobs(std::size_t n) {
  std::vector<JobSpec> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    json::Object o;
    o.emplace_back("x", static_cast<std::int64_t>(i * 10));
    o.emplace_back("tag", "job" + std::to_string(i));
    jobs.push_back(JobSpec{json::Value(std::move(o)), /*seed=*/i + 100});
  }
  return jobs;
}

std::vector<std::string> Dumps(const std::vector<json::Value>& vals) {
  std::vector<std::string> out;
  for (const auto& v : vals) out.push_back(v.Dump(0));
  return out;
}

std::vector<json::Value> RunEcho(unsigned workers, std::size_t n) {
  ExecutorConfig cfg;
  cfg.workers = workers;
  CampaignExecutor exec(cfg);
  return exec.Run("t_echo", EchoJobs(n));
}

// ---- job registry --------------------------------------------------------

TEST(JobRegistry, FindsRegisteredKindsAndRejectsDuplicates) {
  RegisterTestKinds();
  auto& reg = JobRegistry::Global();
  EXPECT_NE(reg.Find("t_echo"), nullptr);
  EXPECT_EQ(reg.Find("no_such_kind"), nullptr);
  EXPECT_THROW(reg.Register("t_echo", [](const json::Value& a,
                                         std::uint64_t) { return a; }),
               json::Error);
}

TEST(JobRegistry, RunRegisteredJobNamesUnknownKind) {
  try {
    RunRegisteredJob("definitely_missing", json::Value(json::Object{}), 1);
    FAIL() << "expected json::Error";
  } catch (const json::Error& e) {
    EXPECT_NE(std::string(e.what()).find("definitely_missing"),
              std::string::npos)
        << e.what();
  }
}

// ---- determinism across worker counts ------------------------------------

TEST(CampaignExecutor, ResultsAreBitIdenticalAtAnyWorkerCount) {
  RegisterTestKinds();
  constexpr std::size_t kJobs = 9;
  const auto reference = Dumps(RunEcho(1, kJobs));
  ASSERT_EQ(reference.size(), kJobs);
  EXPECT_EQ(Dumps(RunEcho(4, kJobs)), reference);
}

TEST(CampaignExecutor, StatsAccumulateAcrossRuns) {
  RegisterTestKinds();
  ExecutorConfig cfg;
  cfg.workers = 2;
  CampaignExecutor exec(cfg);
  const auto first = Dumps(exec.Run("t_echo", EchoJobs(4)));
  const auto second = Dumps(exec.Run("t_echo", EchoJobs(4)));
  EXPECT_EQ(first, second);
  std::uint64_t total = 0;
  for (const auto& st : exec.worker_stats()) total += st.jobs;
  EXPECT_EQ(total, 8u);
}

// ---- error propagation ---------------------------------------------------

TEST(CampaignExecutor, CarriesJobContextInErrors) {
  RegisterTestKinds();
  ExecutorConfig cfg;
  cfg.workers = 2;
  CampaignExecutor exec(cfg);
  std::vector<JobSpec> jobs;
  for (std::size_t i = 0; i < 6; ++i) {
    jobs.push_back(JobSpec{json::Value(json::Object{}), /*seed=*/i});
  }
  // Seeds 1,3,5 throw; Run must surface the lowest failed index with kind
  // and the underlying message.
  try {
    exec.Run("t_flaky", jobs);
    FAIL() << "expected CampaignError";
  } catch (const CampaignError& e) {
    EXPECT_EQ(e.job_index(), 1u);
    EXPECT_EQ(e.kind(), "t_flaky");
    const std::string what = e.what();
    EXPECT_NE(what.find("job 1"), std::string::npos) << what;
    EXPECT_NE(what.find("t_flaky"), std::string::npos) << what;
    EXPECT_NE(what.find("thread"), std::string::npos) << what;
    EXPECT_NE(what.find("boom seed 1"), std::string::npos) << what;
  }
  // RunAll reports every failure individually, successes intact.
  const auto outcomes = exec.RunAll("t_flaky", jobs);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].ok, i % 2 == 0) << i;
  }
}

}  // namespace
}  // namespace grunt::dist
