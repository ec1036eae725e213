// Blackbox-profiles an application with unknown architecture (the paper's
// live-attack setup, Sec V-C): the attacker crawls the URL catalog, infers
// pairwise execution dependencies by performance-interference testing, and
// reconstructs the dependency groups. The admin-side ground truth
// (trace::GroundTruth, which the attacker cannot see) is printed alongside
// so you can judge the profiler's accuracy — this is Fig 16's measurement
// in miniature.
//
//   profile_unknown_app [users]    (default 7000; exits 2 on a bad count)

#include <cstdio>
#include <limits>
#include <string>

#include "attack/botfarm.h"
#include "attack/profiler.h"
#include "attack/sim_target_client.h"
#include "microsvc/cluster.h"
#include "scenario/builtin_apps.h"
#include "scenario/loader.h"
#include "sim/simulation.h"
#include "trace/dependency.h"
#include "util/env.h"
#include "workload/workload.h"

using namespace grunt;

int main(int argc, char** argv) {
  std::int32_t users = 7000;
  if (argc > 1) {
    try {
      users = static_cast<std::int32_t>(util::ParseDecimal(
          "users", argv[1], 1, std::numeric_limits<std::int32_t>::max()));
    } catch (const util::EnvError& e) {
      std::fprintf(stderr, "%s\nusage: profile_unknown_app [users]\n",
                   e.what());
      return 2;
    }
  }

  const scenario::ScenarioSpec spec = scenario::SocialNetworkScenario();
  sim::Simulation sim;
  const microsvc::Application app = scenario::BuildApplication(spec.topology);
  microsvc::Cluster cluster(sim, app, /*seed=*/7);

  workload::ClosedLoopWorkload::Config wl;
  wl.users = users;
  wl.navigator = scenario::BuildNavigator(app, spec.workload);
  workload::ClosedLoopWorkload load(cluster, wl, /*seed=*/7);
  load.Start();
  sim.RunUntil(Sec(15));  // warm-up

  // Ground truth from the white-box dependency model (admin side).
  const workload::RequestMix mix =
      scenario::BuildRequestMix(app, spec.workload);
  std::vector<double> rates(app.request_type_count(), 0.0);
  double weight_total = 0;
  for (double w : mix.weights) weight_total += w;
  const double total_rate = static_cast<double>(users) / 7.0;  // think time
  for (std::size_t i = 0; i < mix.types.size(); ++i) {
    rates[static_cast<std::size_t>(mix.types[i])] =
        total_rate * mix.weights[i] / weight_total;
  }
  trace::GroundTruth truth(app, rates);

  // Blackbox profiling (attacker side).
  attack::SimTargetClient client(cluster);
  attack::BotFarm bots({});
  attack::Profiler profiler(client, bots);
  bool done = false;
  attack::ProfileResult result;
  profiler.Run([&](attack::ProfileResult r) {
    result = std::move(r);
    done = true;
  });
  while (!done && sim.Now() < Sec(7200)) sim.RunUntil(sim.Now() + Sec(10));
  if (!done) {
    std::fprintf(stderr, "profiling did not finish\n");
    return 1;
  }

  std::printf("profiled %zu candidate URLs at %d users "
              "(%.0f s of profiling traffic, %zu bots)\n\n",
              result.candidates.size(), users, ToSeconds(sim.Now()),
              bots.bot_count());

  int tp = 0, fp = 0, fn = 0, tn = 0, kind_match = 0, dependent_truth = 0;
  std::printf("%-18s %-18s %-18s %-18s\n", "pair", "", "truth", "inferred");
  for (const auto& ev : result.evidence) {
    const trace::DepType truth_type = truth.Classify(ev.a, ev.b);
    const trace::DepType inferred = ev.inferred;
    const bool t = trace::IsDependent(truth_type);
    const bool i = trace::IsDependent(inferred);
    tp += (t && i);
    fp += (!t && i);
    fn += (t && !i);
    tn += (!t && !i);
    dependent_truth += t;
    kind_match += (t && i && trace::SameKind(truth_type, inferred));
    if (t || i) {
      std::printf("%-18s %-18s %-18s %-18s%s\n",
                  app.request_type(ev.a).name.c_str(),
                  app.request_type(ev.b).name.c_str(),
                  trace::ToString(truth_type), trace::ToString(inferred),
                  t == i ? "" : "   <-- MISMATCH");
    }
  }
  const double precision = tp + fp ? static_cast<double>(tp) / (tp + fp) : 1.0;
  const double recall = tp + fn ? static_cast<double>(tp) / (tp + fn) : 1.0;
  const double f1 = precision + recall > 0
                        ? 2 * precision * recall / (precision + recall)
                        : 0.0;
  std::printf("\nexistence: precision %.2f recall %.2f f-score %.2f "
              "(tp=%d fp=%d fn=%d tn=%d)\n",
              precision, recall, f1, tp, fp, fn, tn);
  std::printf("dependency-type agreement on true positives: %d/%d\n",
              kind_match, tp);

  std::printf("\ninferred dependency groups:\n");
  for (const auto& g : result.groups) {
    std::printf("  {");
    for (std::size_t i = 0; i < g.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", app.request_type(g[i]).name.c_str());
    }
    std::printf("}\n");
  }
  return 0;
}
