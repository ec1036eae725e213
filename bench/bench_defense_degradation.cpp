// Graceful degradation as a Grunt countermeasure: re-runs the Table-1 damage
// campaign against the SocialNetwork deployment with each defense mechanism
// toggled —
//
//   undefended    the paper configuration (no fault tolerance at all);
//   timeouts      the retry-at-edge/fail-fast-core RPC discipline alone:
//                 interior edges time out fast and never retry, only the
//                 gateway edge retries, the client waits out the 1 s
//                 end-to-end deadline;
//   bulkhead      timeouts + bulkheads (per-downstream quotas AND bounded
//                 arrival queues — an unbounded queue at the shared
//                 upstream is where a caller timeout strands orphan work);
//   adaptive      timeouts + AIMD per-edge concurrency limits;
//   shed          timeouts + deadline-aware admission shedding;
//   bulk+adapt    timeouts + bulkheads + adaptive limits;
//   full          DefendedDeployment(): all of the above.
//
// The attack is driven from a ground-truth profile (identical and maximally
// informed across configs), so the table isolates what the DEFENSE changes,
// not what the profiler sees. Two axes matter: the residual RT amplification
// under attack (the damage the paper maximizes) and legitimate goodput under
// attack relative to the undefended no-attack baseline (the collateral cost
// of shedding/fast-failing real traffic).
//
// Expected shape: undefended amplifies avg RT >10x. Timeouts ALONE make the
// outage worse, not better — timed-out work is still queued downstream and
// the retries multiply it, which is the paper's execution-dependency argument
// turned against the defender. The gates are what sever the dependency:
// bulkheads alone hold amplification under 3x, and bulkheads + adaptive
// limits do so with attack-window goodput within 5% of the undefended
// no-attack baseline; the full stack adds deadline shedding, trading a
// little goodput for a tighter tail.
//
// Exits 1, naming each missed target on stderr, unless undefended amplifies
// RT more than 10x and bulk+adapt stays under 3x at >= 95% of the clean
// goodput. `--smoke` runs a shortened campaign on a smaller population (the
// bench_defense_degradation_smoke ctest); its numbers are not the reference
// ones, but the same targets hold.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "rig.h"
#include "scenario/builtin_apps.h"
#include "scenario/loader.h"
#include "util/parallel_runner.h"

using namespace grunt;
using namespace grunt::bench;

namespace {

struct DefenseConfig {
  std::string name;
  scenario::DeploymentParams params;
};

std::vector<DefenseConfig> BuildMatrix(bool smoke) {
  // The mechanism knobs come from the reference preset so every row tests
  // the same numbers the shipped defended scenario deploys.
  const scenario::DeploymentParams ref = scenario::DefendedDeployment();

  scenario::DeploymentParams undefended;
  scenario::DeploymentParams timeouts;
  timeouts.default_rpc = ref.default_rpc;
  timeouts.edge_rpc = ref.edge_rpc;
  timeouts.client_rpc = ref.client_rpc;
  timeouts.endpoint_deadline = ref.endpoint_deadline;

  scenario::DeploymentParams bulkhead = timeouts;
  bulkhead.bulkhead_per_downstream = ref.bulkhead_per_downstream;
  bulkhead.max_queue_per_replica = ref.max_queue_per_replica;
  scenario::DeploymentParams adaptive = timeouts;
  adaptive.adaptive_limit = ref.adaptive_limit;
  scenario::DeploymentParams shed = timeouts;
  shed.deadline_shed = ref.deadline_shed;
  scenario::DeploymentParams bulk_adapt = bulkhead;
  bulk_adapt.adaptive_limit = ref.adaptive_limit;

  std::vector<DefenseConfig> matrix = {{"undefended", undefended},
                                       {"timeouts", timeouts},
                                       {"bulkhead", bulkhead},
                                       {"adaptive", adaptive},
                                       {"shed", shed},
                                       {"bulk+adapt", bulk_adapt},
                                       {"full", ref}};
  if (smoke) {
    // Endpoints only: the cheap sanity lane keeps the two headline rows.
    matrix = {{"undefended", undefended}, {"bulk+adapt", bulk_adapt},
              {"full", ref}};
    for (auto& cfg : matrix) cfg.params.users = 1500;
  }
  return matrix;
}

template <typename T>
T MedianOf(std::vector<T> v) {
  auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

/// Freezes the reference campaign into an open-loop schedule: per path, the
/// median burst volume and median inter-burst spacing actually fired during
/// the attack window.
std::vector<attack::GroupReplay> DeriveReplay(
    const attack::GruntReport& report) {
  std::vector<attack::GroupReplay> replay;
  for (const auto& g : report.groups) {
    attack::GroupReplay r;
    r.paths_used = g.paths_used;
    for (const auto& plan : g.plans) {
      std::vector<std::int32_t> counts;
      std::vector<SimTime> starts;
      for (const auto& b : g.bursts) {
        if (b.url != plan.url) continue;
        counts.push_back(b.count);
        starts.push_back(b.at);
      }
      attack::PathPlan p = plan;
      SimDuration interval = 0;
      if (!counts.empty()) p.count = MedianOf(counts);
      if (starts.size() >= 2) {
        std::sort(starts.begin(), starts.end());
        std::vector<SimDuration> gaps;
        for (std::size_t i = 1; i < starts.size(); ++i) {
          gaps.push_back(starts[i] - starts[i - 1]);
        }
        interval = MedianOf(gaps);
      }
      r.plans.push_back(p);
      r.intervals.push_back(interval);
    }
    replay.push_back(std::move(r));
  }
  return replay;
}

}  // namespace

int main(int argc, char** argv) try {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  Banner("Defense: dependency-aware graceful degradation vs Grunt",
         "bulkheads + adaptive limits keep avg-RT amplification <3x with "
         "attack goodput within 5% of the clean baseline");

  const auto matrix = BuildMatrix(smoke);
  const SimDuration attack_duration = smoke ? Sec(15) : Sec(60);

  // Equal attacker budget across configs: the unconstrained Table-1 campaign
  // recruits ~1.8k bots against the undefended deployment, so a 2k cap
  // leaves the reference attack unchanged while preventing a defended run
  // from being brute-forced with a 10x larger botnet.
  attack::GruntConfig attack_cfg;
  attack_cfg.botfarm.max_bots = 2000;

  // One ground-truth profile drives every campaign: the defense knobs do not
  // change the topology, so the attacker's knowledge is held constant.
  const auto truth_spec = scenario::SocialNetworkScenario(matrix[0].params);
  const auto truth_app = scenario::BuildApplication(truth_spec.topology);
  const auto profile = scenario::TruthProfile(
      truth_app, scenario::ScenarioRates(truth_app, truth_spec.workload));

  // Row 0 is THE Table-1 campaign: full calibration + feedback against the
  // undefended deployment. Its burst log is then frozen into an open-loop
  // schedule that every defended row replays verbatim — same bursts, same
  // cadence, only the deployment under them changes. (Letting the attacker
  // re-calibrate per defense answers a different question, and its
  // feedback loop — damage reads low once gates fast-fail its probes —
  // escalates straight to the stealth floor.)
  std::printf("calibrating reference campaign (%s)...\n",
              matrix[0].name.c_str());
  std::vector<CampaignResult> results(matrix.size());
  {
    auto spec = scenario::SocialNetworkScenario(matrix[0].params);
    spec.name += "-" + matrix[0].name;
    results[0] = RunScenarioCampaign(spec, attack_duration, /*seed=*/17,
                                     attack_cfg, &profile);
  }
  attack::GruntConfig replay_cfg = attack_cfg;
  replay_cfg.replay = DeriveReplay(results[0].report);

  for (std::size_t i = 1; i < matrix.size(); ++i) {
    std::printf("running %s...\n", matrix[i].name.c_str());
  }
  util::ParallelRunner pool;
  std::fprintf(stderr, "dispatching %zu replay campaigns on %u threads\n",
               matrix.size() - 1, pool.threads());
  const auto defended = pool.Map<CampaignResult>(
      matrix.size() - 1,
      [&matrix, attack_duration, &profile, &replay_cfg](std::size_t i) {
        auto spec = scenario::SocialNetworkScenario(matrix[i + 1].params);
        spec.name += "-" + matrix[i + 1].name;
        return RunScenarioCampaign(spec, attack_duration, /*seed=*/17,
                                   replay_cfg, &profile);
      });
  for (std::size_t i = 0; i < defended.size(); ++i) {
    results[i + 1] = defended[i];
  }

  // The undefended run's pre-attack window is the clean reference that
  // defended goodput is measured against.
  const double clean_goodput = results[0].base_goodput;
  const auto rt_factor = [](const CampaignResult& r) {
    return r.base_rt_ms.mean() > 0 ? r.att_rt_ms.mean() / r.base_rt_ms.mean()
                                   : 0;
  };
  const auto vs_clean_pct = [clean_goodput](const CampaignResult& r) {
    return clean_goodput > 0 ? 100.0 * r.att_goodput / clean_goodput : 0;
  };

  Table table({"Config", "AvgRT base (ms)", "AvgRT att (ms)", "RT factor",
               "Goodput base (r/s)", "Goodput att (r/s)", "Att/clean (%)",
               "Err att (%)", "Bulkhead rej", "Limiter rej", "Sheds"});
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const CampaignResult& r = results[i];
    table.AddRow({matrix[i].name, Table::Num(r.base_rt_ms.mean()),
                  Table::Num(r.att_rt_ms.mean()), Table::Num(rt_factor(r), 2),
                  Table::Num(r.base_goodput, 1), Table::Num(r.att_goodput, 1),
                  Table::Num(vs_clean_pct(r), 1),
                  Table::Num(100.0 * r.att_error_rate, 1),
                  Table::Int(r.bulkhead_rejections),
                  Table::Int(r.limiter_rejections),
                  Table::Int(r.deadline_sheds)});
  }
  std::printf("\nDamage campaign vs graceful-degradation deployments "
              "(white-box attack, seed 17%s)\n",
              smoke ? ", SMOKE run" : "");
  table.Print(std::cout);
  std::printf("\nlegit outcomes over the whole run (ok/timeout/rejected/"
              "deadline/failed) and attack shape:\n");
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const auto& lo = results[i].legit_outcomes;
    const CampaignResult& r = results[i];
    std::printf("  %-10s %llu / %llu / %llu / %llu / %llu | bots %zu, "
                "attack reqs %llu, mean PMB %.0f ms\n",
                matrix[i].name.c_str(),
                static_cast<unsigned long long>(lo[0]),
                static_cast<unsigned long long>(lo[1]),
                static_cast<unsigned long long>(lo[2]),
                static_cast<unsigned long long>(lo[3]),
                static_cast<unsigned long long>(lo[4]), r.bots,
                static_cast<unsigned long long>(r.report.attack_requests),
                r.mean_pmb_ms);
  }
  std::printf("\ntargets: bulk+adapt RT factor < 3.0 and att/clean goodput "
              ">= 95%%; undefended factor is the paper's >10x reference\n");

  // The targets above are the bench's verdict, not just a caption.
  bool ok = true;
  const double undefended = rt_factor(results[0]);
  if (!(undefended > 10.0)) {
    std::fprintf(stderr,
                 "missed target: undefended RT factor %.2f is not above "
                 "10x\n",
                 undefended);
    ok = false;
  }
  std::size_t ba = 0;
  while (matrix[ba].name != "bulk+adapt") ++ba;
  const double ba_factor = rt_factor(results[ba]);
  const double ba_goodput = vs_clean_pct(results[ba]);
  if (!(ba_factor < 3.0 && ba_goodput >= 95.0)) {
    std::fprintf(stderr,
                 "missed target: bulk+adapt RT factor %.2f (needs < 3.0) at "
                 "%.1f%% att/clean goodput (needs >= 95%%)\n",
                 ba_factor, ba_goodput);
    ok = false;
  }
  return ok ? 0 : 1;
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
