// Reproduces Fig 16: Precision / Recall / F-score of the blackbox pairwise
// profiler on three µBench-style applications (62, 118, 196 unique
// microservices) across 8 baseline workload levels, scored against the
// white-box ground truth (the Jaeger+Collectl role).
//
// Expected shape: recall dips at very low workloads (stealth-capped bursts
// can't trigger cross-tier overflow), precision dips at very high workloads
// (baseline already unstable), F-score > 0.9 at moderate utilization.
//
// Exits 1, naming each app and rate that misses on stderr, unless for every
// app precision at 145/s per path is below 1.00 and every row from 5 to
// 95/s reads precision 1.00 and F >= 0.90. The paper's low-load recall dip
// does not reproduce on this substrate (EXPERIMENTS.md) and is not checked.
//
// The 24 (app, rate) cells are independent simulations with their own
// seeds; they fan out on util::ParallelRunner, highest rate first, and
// print in table order, so stdout is the same at any GRUNT_BENCH_THREADS.
// `--smoke` (the bench_fig16_accuracy_smoke ctest) runs µBench-118's 70/s
// and 120/s cells only, on the full table's seeds, prints their rows as the
// full table does, and exits 1 unless precision at 120/s is below 70/s's
// and F >= 0.90 at both.

#include <cstdio>
#include <cstring>
#include <exception>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "attack/botfarm.h"
#include "attack/profiler.h"
#include "attack/sim_target_client.h"
#include "rig.h"
#include "scenario/generate.h"
#include "scenario/loader.h"
#include "trace/dependency.h"
#include "util/parallel_runner.h"

using namespace grunt;
using namespace grunt::bench;

namespace {

struct AppCase {
  int services = 0;
  microsvc::Application app;
  workload::RequestMix mix;
};

/// Profiles `c.app` under `per_path_rate` of open-loop load and scores the
/// verdicts against the ground truth. Throws std::runtime_error naming the
/// app and rate when the profiler has not finished by scenario::kRunCap.
///
/// Not on scenario::ScenarioRig: these cells run no operator, while the
/// rig's RT monitor keeps every legit RT of a run, and a cell at 145/s per
/// path runs for about 6,250 simulated seconds.
scenario::ProfileScore ProfileAndScore(const AppCase& c, double per_path_rate,
                                       std::uint64_t seed) {
  const microsvc::Application& app = c.app;
  const workload::RequestMix& mix = c.mix;
  sim::Simulation sim;
  microsvc::Cluster cluster(sim, app, seed);
  double weight_total = 0;
  for (double w : mix.weights) weight_total += w;
  workload::OpenLoopSource::Config wl;
  wl.rate = per_path_rate * weight_total;
  wl.mix = mix;
  workload::OpenLoopSource source(cluster, wl, seed);
  source.Start();
  sim.RunUntil(Sec(10));

  attack::SimTargetClient client(cluster);
  attack::BotFarm bots({});
  attack::Profiler profiler(client, bots);
  bool done = false;
  attack::ProfileResult result;
  profiler.Run([&](attack::ProfileResult r) {
    result = std::move(r);
    done = true;
  });
  scenario::RunUntilDone(sim, done, Sec(10),
                         "profiling the " + std::to_string(c.services) +
                             "-service app at " +
                             std::to_string(static_cast<int>(per_path_rate)) +
                             "/s per path");

  std::vector<double> rates(app.request_type_count(), 0.0);
  for (std::size_t i = 0; i < mix.types.size(); ++i) {
    rates[static_cast<std::size_t>(mix.types[i])] =
        per_path_rate * mix.weights[i];
  }
  return scenario::ScoreProfile(result, trace::GroundTruth(app, rates));
}

}  // namespace

int main(int argc, char** argv) try {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  Banner("Fig 16: profiler precision/recall/f-score vs baseline workload",
         "recall dips at low load, precision dips at high load, F>0.9 at "
         "moderate load");

  const int kServiceCounts[] = {62, 118, 196};
  // Per-path rates: worker bottlenecks (~210/s capacity) span ~5%..70% util.
  const double kRates[] = {5, 15, 30, 50, 70, 95, 120, 145};
  constexpr std::size_t kApps = std::size(kServiceCounts);
  constexpr std::size_t kRateCount = std::size(kRates);
  constexpr std::size_t kModerateRates = 6;  ///< 5..95/s
  std::vector<std::size_t> app_ids{0, 1, 2}, rate_ids{0, 1, 2, 3, 4, 5, 6, 7};
  if (smoke) {  // µBench-118 at 70 and 120/s per path
    app_ids = {1};
    rate_ids = {4, 6};
  }

  std::vector<AppCase> apps;
  for (int services : kServiceCounts) {
    scenario::MubenchParams shape;
    shape.services = services;
    const auto spec = scenario::GenerateMubench(
        static_cast<std::uint64_t>(services), shape);
    auto app = scenario::BuildApplication(spec.topology);
    auto mix = scenario::BuildRequestMix(app, spec.workload);
    apps.push_back(AppCase{services, std::move(app), std::move(mix)});
  }

  // A cell's cost is simulated time, which grows with the rate: cells run
  // highest rate first, so the pool claims the longest cells first and none
  // of them starts last.
  std::vector<std::pair<std::size_t, std::size_t>> cells;  // (app, rate)
  for (auto r = rate_ids.rbegin(); r != rate_ids.rend(); ++r) {
    for (std::size_t a : app_ids) cells.emplace_back(a, *r);
  }
  util::ParallelRunner pool;  // GRUNT_BENCH_THREADS threads
  std::fprintf(stderr, "profiling %zu cells on %u workers\n", cells.size(),
               pool.threads());
  const auto results =
      pool.Map<scenario::ProfileScore>(cells.size(), [&](std::size_t i) {
        const AppCase& c = apps[cells[i].first];
        const double rate = kRates[cells[i].second];
        return ProfileAndScore(c, rate,
                               static_cast<std::uint64_t>(rate) * 17 +
                                   static_cast<std::uint64_t>(c.services));
      });
  std::vector<std::vector<scenario::ProfileScore>> score(
      kApps, std::vector<scenario::ProfileScore>(kRateCount));  // [app][rate]
  for (std::size_t i = 0; i < cells.size(); ++i) {
    score[cells[i].first][cells[i].second] = results[i];
  }

  for (std::size_t a : app_ids) {
    std::printf("\n--- App with %d unique microservices (%zu public paths) "
                "---\n",
                apps[a].services, apps[a].app.PublicDynamicTypes().size());
    std::printf("%16s %10s %10s %10s %14s\n", "per-path rate", "precision",
                "recall", "f-score", "(tp/fp/fn)");
    for (std::size_t r : rate_ids) {
      const scenario::ProfileScore& s = score[a][r];
      std::printf("%13.0f/s %10.2f %10.2f %10.2f %8d/%d/%d\n", kRates[r],
                  s.precision(), s.recall(), s.f1(), s.tp, s.fp, s.fn);
    }
  }
  std::printf("\npaper (Fig 16): same U-shaped accuracy curve per app; "
              "moderate workloads give F-score > 0.9\n");

  // The claim above is the bench's verdict, not just a caption.
  bool ok = true;
  const auto check = [&](bool holds, std::size_t a, std::size_t r,
                         const std::string& what) {
    if (holds) return;
    std::fprintf(stderr, "missed target: %d-service app at %.0f/s per path: "
                 "%s\n", apps[a].services, kRates[r], what.c_str());
    ok = false;
  };
  const auto f_at_least_090 = [&](std::size_t a, std::size_t r) {
    const double f = score[a][r].f1();
    check(f >= 0.90, a, r, "F " + Table::Num(f, 2) + " is below 0.90");
  };
  if (smoke) {
    const std::size_t a = 1, mid = 4, high = 6;  // 118 services, 70 and 120/s
    const double p_mid = score[a][mid].precision();
    const double p_high = score[a][high].precision();
    check(p_high < p_mid, a, high,
          "precision " + Table::Num(p_high, 2) + " is not below 70/s's " +
              Table::Num(p_mid, 2));
    f_at_least_090(a, mid);
    f_at_least_090(a, high);
  } else {
    for (std::size_t a : app_ids) {
      const double p_high = score[a][kRateCount - 1].precision();
      check(p_high < 1.0, a, kRateCount - 1,
            "precision " + Table::Num(p_high, 2) + " is not below 1.00");
      for (std::size_t r = 0; r < kModerateRates; ++r) {
        const double p = score[a][r].precision();
        check(p == 1.0, a, r,
              "precision " + Table::Num(p, 2) + " is below 1.00");
        f_at_least_090(a, r);
      }
    }
  }
  return ok ? 0 : 1;
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
