// Reproduces Fig 11: "Pairwise dependency profiling" — the response time of
// victim sample probes as the profiling-burst volume grows, in both burst
// orders, for (a) a parallel-dependency pair and (b) a sequential pair.
//
// Expected shape:
//  (a) parallel  (compose/media vs compose/url): neither direction
//      interferes at low volume; both kick in past the overflow volume.
//  (b) sequential (compose/poll vs compose/media): the upstream path
//      (compose/poll, bottleneck = compose-post) interferes at EVERY
//      volume; the downstream path needs volume.
//
// The probes fan out through the CampaignExecutor (campaign_jobs.cpp holds
// the per-deployment job bodies); seeds are per-job, so the table is the
// same at any GRUNT_BENCH_THREADS.

#include <cstdio>
#include <vector>

#include "campaign_jobs.h"
#include "dist/campaign_executor.h"
#include "rig.h"

using namespace grunt;
using namespace grunt::bench;

namespace {

struct Probe {
  double victim_median_ms = 0;
  double burst_pmb_ms = 0;
};

void RunPair(dist::CampaignExecutor& exec, const CloudSetting& setting,
             const char* label, const char* name_a, const char* name_b) {
  // Each probe runs on its own fresh deployment, so the baselines and every
  // (volume, direction) cell fan out across the executor.
  std::vector<dist::JobSpec> base_jobs;
  for (std::size_t i = 0; i < 2; ++i) {
    json::Value args = SettingToJson(setting);
    args.Set("url", json::Value(i == 0 ? name_a : name_b));
    base_jobs.push_back(dist::JobSpec{std::move(args), /*seed=*/7 + i});
  }
  const auto bases = exec.Run("fig11_baseline", base_jobs);
  const double base_a = bases[0].At("baseline_ms").AsDouble();
  const double base_b = bases[1].At("baseline_ms").AsDouble();
  std::printf("\n--- %s: a=%s (baseline %.1fms), b=%s (baseline %.1fms) "
              "---\n",
              label, name_a, base_a, name_b, base_b);
  std::printf("%10s | %24s | %24s\n", "volume", "probe RT of b, a bursts",
              "probe RT of a, b bursts");
  std::printf("%10s | %14s %9s | %14s %9s\n", "(reqs)", "median (ms)",
              "interf?", "median (ms)", "interf?");
  const std::vector<std::int32_t> volumes{12, 24, 48, 96};
  std::vector<dist::JobSpec> probe_jobs;
  for (std::size_t j = 0; j < volumes.size() * 2; ++j) {
    const std::int32_t volume = volumes[j / 2];
    const bool forward = j % 2 == 0;
    json::Value args = SettingToJson(setting);
    args.Set("burst", json::Value(forward ? name_a : name_b));
    args.Set("victim", json::Value(forward ? name_b : name_a));
    args.Set("volume", json::Value(static_cast<std::int64_t>(volume)));
    probe_jobs.push_back(dist::JobSpec{
        std::move(args),
        /*seed=*/static_cast<std::uint64_t>((forward ? 100 : 200) +
                                            volume)});
  }
  const auto raw = exec.Run("fig11_direction", probe_jobs);
  std::vector<Probe> probes;
  probes.reserve(raw.size());
  for (const auto& r : raw) {
    probes.push_back(Probe{r.At("victim_median_ms").AsDouble(),
                           r.At("burst_pmb_ms").AsDouble()});
  }
  for (std::size_t v = 0; v < volumes.size(); ++v) {
    const Probe& ab = probes[2 * v];
    const Probe& ba = probes[2 * v + 1];
    const auto verdict = [](double rt, double base) {
      return rt > std::max(3.0 * base, base + 60.0) ? "YES" : "no";
    };
    std::printf("%10d | %14.1f %9s | %14.1f %9s\n", volumes[v],
                ab.victim_median_ms, verdict(ab.victim_median_ms, base_b),
                ba.victim_median_ms, verdict(ba.victim_median_ms, base_a));
  }
}

}  // namespace

int main() {
  Banner("Fig 11: pairwise dependency profiling",
         "(a) parallel pair: interference appears only above a volume "
         "threshold, both directions; (b) sequential pair: the upstream "
         "path interferes at every volume");
  const CloudSetting setting{"EC2-7K", 7000, 1.0, 1};
  RegisterCampaignJobs();
  dist::CampaignExecutor exec;  // GRUNT_BENCH_THREADS workers
  std::fprintf(stderr, "probing on %u workers\n", exec.workers());
  RunPair(exec, setting, "Fig 11(a): PARALLEL pair", "compose/media",
          "compose/url");
  RunPair(exec, setting, "Fig 11(b): SEQUENTIAL pair (a upstream)",
          "compose/poll", "compose/media");
  MaybeExportCampaignStats(exec);
  return 0;
}
