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
#include <map>

#include "cloud/defense.h"
#include "attack/grunt_attack.h"
#include "attack/sim_target_client.h"
#include "cloud/autoscaler.h"
#include "cloud/ids.h"
#include "cloud/monitor.h"
#include "microsvc/cluster.h"
#include "scenario/builtin_apps.h"
#include "scenario/loader.h"
#include "trace/dependency.h"
#include "workload/workload.h"

using namespace grunt;

int main() {
  const auto spec = scenario::SocialNetworkScenario();
  sim::Simulation sim;
  const auto app = scenario::BuildApplication(spec.topology);
  microsvc::Cluster cluster(sim, app, 55);

  workload::ClosedLoopWorkload::Config wl;
  wl.users = 7000;
  wl.navigator = scenario::BuildNavigator(app, spec.workload);
  workload::ClosedLoopWorkload users(cluster, wl, 55);
  users.Start();

  cloud::ResourceMonitor coarse(cluster, {Sec(1), "cloudwatch"});
  cloud::ResourceMonitor fine(cluster, {Ms(100), "fine"});
  cloud::ResponseTimeMonitor rt(cluster, {Sec(1), "rt"});
  cloud::AutoScaler scaler(cluster, coarse, {});
  cloud::Ids ids(cluster, &coarse, &rt, {});
  coarse.Start();
  fine.Start();
  rt.Start();
  scaler.Start();
  ids.Start();
  cloud::CorrelationDefense defense(cluster, &fine);
  defense.Start();

  // Record per-type submission timestamps (a gateway log): the correlation
  // detector joins this with the fine monitor afterwards.
  // Ground-truth attacker tags, used only for SCORING the defense.
  std::map<std::uint64_t, bool> is_attacker;
  cluster.telemetry().submit().Subscribe(
      [&](const telemetry::RequestSubmit& e) {
    is_attacker[e.client_id] = is_attacker[e.client_id] ||
                               (e.cls != microsvc::RequestClass::kLegit);
  });

  sim.RunUntil(Sec(40));

  // Attack with a known-good profile (the defense, not the profiler, is
  // under study here).
  std::vector<double> rates(app.request_type_count(), 0.0);
  const auto mix = scenario::BuildRequestMix(app, spec.workload);
  double total_w = 0;
  for (double w : mix.weights) total_w += w;
  for (std::size_t i = 0; i < mix.types.size(); ++i) {
    rates[static_cast<std::size_t>(mix.types[i])] =
        1000.0 * mix.weights[i] / total_w;
  }
  attack::ProfileResult profile;
  profile.baseline_rt_ms.assign(app.request_type_count(), 20.0);
  for (auto t : app.PublicDynamicTypes()) {
    profile.candidates.push_back(t);
    profile.urls.push_back({t, "/" + app.request_type(t).name, false});
  }
  trace::GroundTruth truth(app, rates);
  trace::DependencyGroups groups(app.request_type_count());
  for (const auto& dep : truth.AllPairs()) {
    if (trace::IsDependent(dep.type)) {
      profile.pairs.push_back(dep);
      groups.Union(dep.a, dep.b);
    }
  }
  for (const auto& g : groups.Groups()) profile.groups.push_back(g);

  attack::SimTargetClient client(cluster);
  attack::GruntConfig gcfg;
  gcfg.max_groups = 1;  // focus the attack so the correlation has contrast
  attack::GruntAttack grunt(client, gcfg);
  bool done = false;
  SimTime attack_start = 0;
  grunt.OnAttackPhaseStart([&](SimTime at) { attack_start = at; });
  grunt.RunWithProfile(profile, Sec(60),
                       [&](const attack::GruntReport&) { done = true; });
  while (!done && sim.Now() < Sec(7200)) sim.RunUntil(sim.Now() + Sec(10));
  if (!done) {
    std::fprintf(stderr, "campaign did not finish\n");
    return 1;
  }
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
}
