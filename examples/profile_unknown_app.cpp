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
#include <exception>
#include <limits>
#include <string>

#include "attack/botfarm.h"
#include "attack/profiler.h"
#include "rig.h"
#include "scenario/builtin_apps.h"
#include "util/env.h"

using namespace grunt;

int main(int argc, char** argv) try {
  scenario::ScenarioSpec spec = scenario::SocialNetworkScenario();
  if (argc > 1) {
    try {
      spec.workload.users = static_cast<std::int32_t>(util::ParseDecimal(
          "users", argv[1], 1, std::numeric_limits<std::int32_t>::max()));
    } catch (const util::EnvError& e) {
      std::fprintf(stderr, "%s\nusage: profile_unknown_app [users]\n",
                   e.what());
      return 2;
    }
  }
  // Users only: the profiler is under study, not the operators.
  spec.operators.autoscaler_enabled = false;
  spec.operators.ids_enabled = false;
  bench::ScenarioRig rig(spec, /*seed=*/7);
  const auto& app = rig.app();
  rig.RunUntil(Sec(15));  // warm-up

  // Ground truth from the white-box dependency model (admin side).
  const trace::GroundTruth truth(app,
                                 bench::ScenarioRates(app, spec.workload));

  // Blackbox profiling (attacker side).
  attack::BotFarm bots({});
  attack::Profiler profiler(rig.client(), bots);
  bool done = false;
  attack::ProfileResult result;
  profiler.Run([&](attack::ProfileResult r) {
    result = std::move(r);
    done = true;
  });
  bench::RunUntilDone(rig.sim(), done, Sec(10), "profiling");

  std::printf("profiled %zu candidate URLs at %d users "
              "(%.0f s of profiling traffic, %zu bots)\n\n",
              result.candidates.size(), spec.workload.users,
              ToSeconds(rig.sim().Now()), bots.bot_count());

  std::printf("%-18s %-18s %-18s %-18s\n", "pair", "", "truth", "inferred");
  for (const auto& ev : result.evidence) {
    const trace::DepType truth_type = truth.Classify(ev.a, ev.b);
    const bool t = trace::IsDependent(truth_type);
    const bool i = trace::IsDependent(ev.inferred);
    if (t || i) {
      std::printf("%-18s %-18s %-18s %-18s%s\n",
                  app.request_type(ev.a).name.c_str(),
                  app.request_type(ev.b).name.c_str(),
                  trace::ToString(truth_type), trace::ToString(ev.inferred),
                  t == i ? "" : "   <-- MISMATCH");
    }
  }
  const bench::ProfileScore score = bench::ScoreProfile(result, truth);
  std::printf("\nexistence: precision %.2f recall %.2f f-score %.2f "
              "(tp=%d fp=%d fn=%d tn=%d)\n",
              score.precision(), score.recall(), score.f1(), score.tp,
              score.fp, score.fn, score.tn);
  std::printf("dependency-type agreement on true positives: %d/%d\n",
              score.kind_match, score.tp);

  std::printf("\ninferred dependency groups:\n");
  for (const auto& g : result.groups) {
    std::printf("  {");
    for (std::size_t i = 0; i < g.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", app.request_type(g[i]).name.c_str());
    }
    std::printf("}\n");
  }
  return 0;
} catch (const std::exception& e) {  // e.g. profiling that hit the cap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
