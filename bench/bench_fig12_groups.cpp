// Reproduces Fig 12: the administrator's view of the SocialNetwork service
// graph (12a), and the attacker's view — dependency groups reconstructed by
// the blackbox profiler (12c) — scored against the white-box ground truth.
//
// Expected shape: three multi-path dependency groups (compose, home, user)
// plus independent singleton paths, recovered from the outside with high
// precision/recall at moderate load.
//
// On the default SocialNetwork run the bench exits 1, naming the miss on
// stderr, unless recall reads 1.00, the F-score is above 0.90 and one
// profiled group equals the truth's {user/read, user/follow, user/profile}.
// The compose and home paths merge into one profiled group (EXPERIMENTS.md),
// so precision is not pinned at 1.00.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <utility>

#include "rig.h"
#include "scenario/builtin_apps.h"
#include "scenario/registry.h"
#include "trace/dependency.h"

int main(int argc, char** argv) try {
  using namespace grunt;
  using namespace grunt::bench;

  // The whole figure is app-generic: --scenario profiles any other topology
  // (builtin name or spec file) instead of the default SocialNetwork.
  auto sargs = scenario::ParseScenarioArgs(argc, argv);
  if (sargs.should_exit) return sargs.exit_code;
  const scenario::ScenarioSpec spec =
      sargs.scenario ? std::move(*sargs.scenario)
                     : scenario::SocialNetworkScenario();

  Banner("Fig 12: dependency groups — admin view vs attacker view",
         "3 dependency groups recovered via pairwise interference profiling");

  scenario::ScenarioRig rig(spec, 11);
  rig.RunUntil(Sec(15));
  const auto& app = rig.app();

  // --- Fig 12(a): administrator's view (service call graph) ---
  std::printf("\nFig 12(a) — administrator's view: execution paths\n");
  for (auto t : app.PublicDynamicTypes()) {
    std::printf("  %-18s:", app.request_type(t).name.c_str());
    for (auto s : app.PathServices(t)) {
      std::printf(" -> %s", app.service(s).name.c_str());
    }
    std::printf("\n");
  }

  // --- ground truth (Jaeger+Collectl role) ---
  const std::vector<double> rates = scenario::ScenarioRates(app, spec.workload);
  const trace::GroundTruth truth(app, rates);

  // --- Fig 12(b)+(c): blackbox profiling ---
  attack::BotFarm bots({});
  attack::Profiler profiler(rig.client(), bots);
  bool done = false;
  attack::ProfileResult result;
  profiler.Run([&](attack::ProfileResult r) {
    result = std::move(r);
    done = true;
  });
  scenario::RunUntilDone(rig.sim(), done, Sec(10), "profiling " + spec.name);
  std::printf("\nprofiling finished at t=%.0fs using %zu bots\n",
              ToSeconds(rig.sim().Now()), bots.bot_count());

  std::printf("\nFig 12(b) — three representative pairwise profilings:\n");
  int shown = 0;
  for (const auto& ev : result.evidence) {
    const auto want =
        shown == 0 ? trace::DepType::kParallel
                   : (shown == 1 ? trace::DepType::kSequentialAUp
                                 : trace::DepType::kNone);
    if (!trace::SameKind(ev.inferred, want) &&
        !(want == trace::DepType::kNone && ev.inferred == want)) {
      continue;
    }
    std::printf("  %s vs %s: volumes {", app.request_type(ev.a).name.c_str(),
                app.request_type(ev.b).name.c_str());
    for (std::size_t i = 0; i < ev.volumes.size(); ++i) {
      std::printf("%s%d", i ? "," : "", ev.volumes[i]);
    }
    std::printf("} a->b {");
    for (std::size_t i = 0; i < ev.a_blocks_b.size(); ++i) {
      std::printf("%s%c", i ? "," : "", ev.a_blocks_b[i] ? 'Y' : 'n');
    }
    std::printf("} b->a {");
    for (std::size_t i = 0; i < ev.b_blocks_a.size(); ++i) {
      std::printf("%s%c", i ? "," : "", ev.b_blocks_a[i] ? 'Y' : 'n');
    }
    std::printf("} => %s\n", trace::ToString(ev.inferred));
    if (++shown == 3) break;
  }

  std::printf("\nFig 12(c) — attacker's view: dependency groups\n");
  for (const auto& g : result.groups) {
    std::printf("  {");
    for (std::size_t i = 0; i < g.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", app.request_type(g[i]).name.c_str());
    }
    std::printf("}\n");
  }

  // --- score vs ground truth ---
  const scenario::ProfileScore score = scenario::ScoreProfile(result, truth);
  std::printf("\nprofiler accuracy vs ground truth: precision %.2f, recall "
              "%.2f, f-score %.2f; dependency-type agreement %d/%d\n",
              score.precision(), score.recall(), score.f1(),
              score.kind_match, score.tp);
  std::printf("paper (Fig 12c): compose, read-home, read-user groups "
              "separate; F-score >90%% at moderate load\n");
  if (sargs.scenario) return 0;  // the claim is SocialNetwork's

  // The claim above is the bench's verdict, not just a caption.
  bool ok = true;
  if (score.recall() < 1.0) {
    std::fprintf(stderr, "missed target: recall %.2f is below 1.00\n",
                 score.recall());
    ok = false;
  }
  if (!(score.f1() > 0.90)) {
    std::fprintf(stderr, "missed target: F-score %.2f is not above 0.90\n",
                 score.f1());
    ok = false;
  }
  const auto user_read = *app.FindRequestType("user/read");
  for (const auto& g : scenario::TruthProfile(app, rates).groups) {
    if (std::find(g.begin(), g.end(), user_read) == g.end()) continue;
    if (std::find(result.groups.begin(), result.groups.end(), g) ==
        result.groups.end()) {
      std::fprintf(stderr, "missed target: no profiled group equals the "
                   "truth's user group of %zu paths\n", g.size());
      ok = false;
    }
  }
  return ok ? 0 : 1;
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
