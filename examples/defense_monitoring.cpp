// Defense study (paper Sec VI "Possible defense and mitigation"): the same
// Grunt attack observed by three monitoring configurations —
//   1. the stock 1 s CloudWatch-style monitor + threshold autoscaler + IDS
//      (what the paper's clouds run): sees nothing actionable;
//   2. a fine-grained 100 ms monitor: SEES the alternating millibottlenecks
//      (at the cost of 10x the sampling overhead);
//   3. cloud::CorrelationDefense: flags the bot sessions whose requests
//      correlate with arrival volleys and the 100 ms saturation pulses —
//      the "statistical correlation" defense direction the paper sketches.

#include <cstdio>
#include <exception>
#include <map>

#include "cloud/defense.h"
#include "rig.h"
#include "scenario/builtin_apps.h"

using namespace grunt;

int main() try {
  // 7000 closed-loop users under the stock 1 s monitors, threshold
  // autoscaler and IDS.
  const auto spec = scenario::SocialNetworkScenario();
  bench::ScenarioRig rig(spec, 55);
  const auto& app = rig.app();
  const cloud::ResourceMonitor& coarse = rig.cloudwatch();
  const cloud::AutoScaler& scaler = *rig.autoscaler();
  const cloud::Ids& ids = *rig.ids();
  cloud::ResourceMonitor fine(rig.cluster(),
                              {bench::kFineMonitorPeriod, "fine"});
  fine.Start();
  cloud::CorrelationDefense defense(rig.cluster(), &fine);
  defense.Start();

  // Record per-type submission timestamps (a gateway log): the correlation
  // detector joins this with the fine monitor afterwards.
  // Ground-truth attacker tags, used only for SCORING the defense.
  std::map<std::uint64_t, bool> is_attacker;
  rig.cluster().telemetry().submit().Subscribe(
      [&](const telemetry::RequestSubmit& e) {
    is_attacker[e.client_id] = is_attacker[e.client_id] ||
                               (e.cls != microsvc::RequestClass::kLegit);
  });

  rig.RunUntil(Sec(40));

  // Attack with a known-good profile (the defense, not the profiler, is
  // under study here).
  const auto profile =
      bench::TruthProfile(app, bench::ScenarioRates(app, spec.workload));
  attack::GruntConfig gcfg;
  gcfg.max_groups = 1;  // focus the attack so the correlation has contrast
  attack::GruntAttack grunt(rig.client(), gcfg);
  const SimTime attack_start =
      bench::RunGrunt(rig.sim(), grunt, Sec(60), &profile, "campaign");
  const SimTime att_to = attack_start + Sec(60);

  // --- 1. stock operator view ---
  std::printf("=== 1. stock defenses (1s monitor, autoscaler, IDS) ===\n");
  std::size_t actions = 0;
  for (const auto& a : scaler.actions()) actions += (a.at >= attack_start);
  std::printf("  scale actions during attack: %zu\n", actions);
  std::printf("  IDS alerts attributable to attacker sessions: %zu\n",
              ids.attributed_attack_alerts());
  std::printf("  service-degradation alerts (no attribution): %zu\n",
              ids.CountAlerts(cloud::AlertRule::kServiceDegradation));
  std::printf("  -> the operator knows RT is bad but has no root cause\n");

  // --- 2. fine-grained monitoring ---
  std::printf("\n=== 2. fine-grained (100ms) monitoring ===\n");
  std::printf("  %-16s %14s %14s\n", "service", "1s max util",
              "100ms max util");
  for (const char* name : {"compose-post", "text-service", "media-service",
                           "social-graph", "user-service"}) {
    const auto sid = *app.FindService(name);
    std::printf("  %-16s %13.0f%% %13.0f%%\n", name,
                coarse.cpu_util(sid).WindowMax(attack_start, att_to) * 100,
                fine.cpu_util(sid).WindowMax(attack_start, att_to) * 100);
  }
  std::printf("  -> millibottlenecks (100%% pulses) exist only in the 100ms "
              "view\n");

  // --- 3. cloud::CorrelationDefense (the paper's sketched direction) ---
  std::printf("\n=== 3. volley/millibottleneck correlation defense ===\n");
  const auto volleys = defense.Volleys(attack_start, att_to);
  std::printf("  arrival volleys during the attack: %zu; confirmed by a "
              "millibottleneck: %zu\n", volleys.volleys, volleys.confirmed);
  RunningStats attacker_frac, legit_frac;
  std::size_t flagged_attackers = 0, flagged_legit = 0, judged_attackers = 0,
              judged_legit = 0;
  for (const auto& v : defense.Analyze(attack_start, att_to)) {
    const bool attacker = is_attacker[v.client_id];
    (attacker ? attacker_frac : legit_frac).Add(v.participation);
    (attacker ? judged_attackers : judged_legit) += 1;
    if (v.flagged) (attacker ? flagged_attackers : flagged_legit) += 1;
  }
  std::printf("  mean volley-participation: attacker sessions %.0f%%, legit "
              "sessions %.0f%%\n",
              attacker_frac.mean() * 100, legit_frac.mean() * 100);
  std::printf("  flagged: %zu/%zu attacker sessions, %zu/%zu legit sessions "
              "(false positives)\n",
              flagged_attackers, judged_attackers, flagged_legit,
              judged_legit);
  std::printf("  -> fine-grained monitoring + arrival-pattern correlation "
              "separates Grunt bots\n     from users (see "
              "bench_defense_correlation for the bot-budget arms race)\n");
  return 0;
} catch (const std::exception& e) {  // e.g. a campaign that hit the cap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
