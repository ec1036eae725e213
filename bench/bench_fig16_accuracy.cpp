// Reproduces Fig 16: Precision / Recall / F-score of the blackbox pairwise
// profiler on three µBench-style applications (62, 118, 196 unique
// microservices) across 8 baseline workload levels, scored against the
// white-box ground truth (the Jaeger+Collectl role).
//
// Expected shape: recall dips at very low workloads (stealth-capped bursts
// can't trigger cross-tier overflow), precision dips at very high workloads
// (baseline already unstable), F-score > 0.9 at moderate utilization.
//
// The 24 (app, rate) cells are independent simulations with their own
// seeds; they fan out on util::ParallelRunner, highest rate first, and
// print in table order, so stdout is the same at any GRUNT_BENCH_THREADS.

#include <cstdio>
#include <exception>
#include <iterator>
#include <string>
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

struct Score {
  double precision = 1, recall = 1, f1 = 1;
  int tp = 0, fp = 0, fn = 0;
};

struct AppCase {
  int services = 0;
  microsvc::Application app;
  workload::RequestMix mix;
};

/// Profiles `c.app` under `per_path_rate` of open-loop load and scores the
/// verdicts against the ground truth. Throws std::runtime_error naming the
/// app and rate when the profiler has not finished by kRunCap.
///
/// Not on ScenarioRig: its 100 ms fine monitor would sample up to 196
/// services ten times per simulated second for nothing read here.
Score ProfileAndScore(const AppCase& c, double per_path_rate,
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
  RunUntilDone(sim, done, Sec(10),
               "profiling the " + std::to_string(c.services) +
                   "-service app at " +
                   std::to_string(static_cast<int>(per_path_rate)) +
                   "/s per path");

  std::vector<double> rates(app.request_type_count(), 0.0);
  for (std::size_t i = 0; i < mix.types.size(); ++i) {
    rates[static_cast<std::size_t>(mix.types[i])] =
        per_path_rate * mix.weights[i];
  }
  trace::GroundTruth truth(app, rates);
  Score s;
  for (const auto& ev : result.evidence) {
    const bool t = trace::IsDependent(truth.Classify(ev.a, ev.b));
    const bool i = trace::IsDependent(ev.inferred);
    s.tp += (t && i);
    s.fp += (!t && i);
    s.fn += (t && !i);
  }
  s.precision = s.tp + s.fp ? 1.0 * s.tp / (s.tp + s.fp) : 1.0;
  s.recall = s.tp + s.fn ? 1.0 * s.tp / (s.tp + s.fn) : 1.0;
  s.f1 = s.precision + s.recall > 0
             ? 2 * s.precision * s.recall / (s.precision + s.recall)
             : 0;
  return s;
}

}  // namespace

int main() try {
  Banner("Fig 16: profiler precision/recall/f-score vs baseline workload",
         "recall dips at low load, precision dips at high load, F>0.9 at "
         "moderate load");

  const int kServiceCounts[] = {62, 118, 196};
  // Per-path rates: worker bottlenecks (~210/s capacity) span ~5%..70% util.
  const double kRates[] = {5, 15, 30, 50, 70, 95, 120, 145};
  constexpr std::size_t kApps = std::size(kServiceCounts);
  constexpr std::size_t kRateCount = std::size(kRates);

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

  // A cell's cost is simulated time, which grows with the rate: cell i runs
  // rate kRateCount - 1 - i / kApps of app i % kApps, so the pool claims the
  // longest cells first and none of them starts last.
  util::ParallelRunner pool;  // GRUNT_BENCH_THREADS threads
  std::fprintf(stderr, "profiling %zu cells on %u workers\n",
               kApps * kRateCount, pool.threads());
  const auto cells =
      pool.Map<Score>(kApps * kRateCount, [&](std::size_t i) {
        const AppCase& c = apps[i % kApps];
        const double rate = kRates[kRateCount - 1 - i / kApps];
        return ProfileAndScore(c, rate,
                               static_cast<std::uint64_t>(rate) * 17 +
                                   static_cast<std::uint64_t>(c.services));
      });

  for (std::size_t a = 0; a < kApps; ++a) {
    std::printf("\n--- App with %d unique microservices (%zu public paths) "
                "---\n",
                apps[a].services, apps[a].app.PublicDynamicTypes().size());
    std::printf("%16s %10s %10s %10s %14s\n", "per-path rate", "precision",
                "recall", "f-score", "(tp/fp/fn)");
    for (std::size_t r = 0; r < kRateCount; ++r) {
      const Score& s = cells[(kRateCount - 1 - r) * kApps + a];
      std::printf("%13.0f/s %10.2f %10.2f %10.2f %8d/%d/%d\n", kRates[r],
                  s.precision, s.recall, s.f1, s.tp, s.fp, s.fn);
    }
  }
  std::printf("\npaper (Fig 16): same U-shaped accuracy curve per app; "
              "moderate workloads give F-score > 0.9\n");
  return 0;
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
