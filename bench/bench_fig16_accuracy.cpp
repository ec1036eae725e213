// Reproduces Fig 16: Precision / Recall / F-score of the blackbox pairwise
// profiler on three µBench-style applications (62, 118, 196 unique
// microservices) across 8 baseline workload levels, scored against the
// white-box ground truth (the Jaeger+Collectl role).
//
// Expected shape: recall dips at very low workloads (stealth-capped bursts
// can't trigger cross-tier overflow), precision dips at very high workloads
// (baseline already unstable), F-score > 0.9 at moderate utilization.

#include <cstdio>

#include "attack/botfarm.h"
#include "attack/profiler.h"
#include "attack/sim_target_client.h"
#include "rig.h"
#include "scenario/generate.h"
#include "scenario/loader.h"
#include "trace/dependency.h"

using namespace grunt;
using namespace grunt::bench;

namespace {

struct Score {
  double precision = 1, recall = 1, f1 = 1;
  int tp = 0, fp = 0, fn = 0;
};

Score ProfileAndScore(const microsvc::Application& app,
                      const workload::RequestMix& mix, double per_path_rate,
                      std::uint64_t seed) {
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
  attack::Profiler profiler(client, bots, {});
  bool done = false;
  attack::ProfileResult result;
  profiler.Run([&](attack::ProfileResult r) {
    result = std::move(r);
    done = true;
  });
  while (!done && sim.Now() < Sec(7200)) sim.RunUntil(sim.Now() + Sec(30));

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

int main() {
  Banner("Fig 16: profiler precision/recall/f-score vs baseline workload",
         "recall dips at low load, precision dips at high load, F>0.9 at "
         "moderate load");

  const int kServiceCounts[] = {62, 118, 196};
  // Per-path rates: worker bottlenecks (~210/s capacity) span ~5%..70% util.
  const double kRates[] = {5, 15, 30, 50, 70, 95, 120, 145};

  for (int services : kServiceCounts) {
    scenario::MubenchParams shape;
    shape.services = services;
    const auto spec = scenario::GenerateMubench(
        static_cast<std::uint64_t>(services), shape);
    const auto app = scenario::BuildApplication(spec.topology);
    const auto mix = scenario::BuildRequestMix(app, spec.workload);
    std::printf("\n--- App with %d unique microservices (%zu public paths) "
                "---\n",
                services, app.PublicDynamicTypes().size());
    std::printf("%16s %10s %10s %10s %14s\n", "per-path rate", "precision",
                "recall", "f-score", "(tp/fp/fn)");
    std::fflush(stdout);
    for (double rate : kRates) {
      const Score s = ProfileAndScore(app, mix, rate,
                                      static_cast<std::uint64_t>(rate) * 17 +
                                          static_cast<std::uint64_t>(services));
      std::printf("%13.0f/s %10.2f %10.2f %10.2f %8d/%d/%d\n", rate,
                  s.precision, s.recall, s.f1, s.tp, s.fp, s.fn);
      std::fflush(stdout);
    }
  }
  std::printf("\npaper (Fig 16): same U-shaped accuracy curve per app; "
              "moderate workloads give F-score > 0.9\n");
  return 0;
}
