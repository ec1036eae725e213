// Ablation: WHY the Grunt design (multi-path alternation within dependency
// groups) — against (1) the same framework locked to a single path per
// group (Tail-attack style [51]), (2) the standalone Tail attack on the
// single heaviest path, and (3) a brute-force flood.
//
// Expected shape: Grunt achieves the damage goal stealthily; single-path
// variants deliver far less system-wide damage (or lose stealth trying);
// the flood maximizes damage but lights up every detector.
//
// Exits 1, naming each missed target on stderr, unless the RT factors fall
// from Grunt to the single-path variant to the Tail attack, Grunt draws no
// scale action, attributable alert or saturation alert, and the flood
// draws at least one attributable alert.

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "baseline/tail_attack.h"
#include "rig.h"
#include "util/parallel_runner.h"

using namespace grunt;
using namespace grunt::bench;

namespace {

const CloudSetting kSetting{"EC2-7K", 7000, 1.0, 1};

struct Outcome {
  std::string strategy;
  double base_rt = 0, att_rt = 0;
  double att_cpu = 0;
  std::size_t scale_actions = 0;
  std::size_t attributed_alerts = 0;
  std::size_t saturation_alerts = 0;
  std::uint64_t attack_requests = 0;

  double rt_factor() const { return base_rt > 0 ? att_rt / base_rt : 0; }
};

/// The row of an attack that began at `attack_start` and has finished.
Outcome Measure(scenario::ScenarioRig& rig, const char* strategy,
                SimTime attack_start, std::uint64_t attack_requests) {
  Outcome out;
  out.strategy = strategy;
  out.base_rt = rig.rt_monitor().LegitWindow(Sec(15), Sec(40)).mean();
  out.att_rt = rig.rt_monitor()
                   .LegitWindow(attack_start + Sec(5), attack_start + Sec(60))
                   .mean();
  const auto hottest = rig.HottestBackend(Sec(15), Sec(40));
  out.att_cpu = 100.0 * rig.cloudwatch().cpu_util(hottest).WindowMean(
                            attack_start + Sec(5), attack_start + Sec(60));
  for (const auto& a : rig.autoscaler()->actions()) {
    out.scale_actions += (a.at >= attack_start);
  }
  out.attributed_alerts = rig.ids()->attributed_attack_alerts();
  out.saturation_alerts =
      rig.ids()->CountAlerts(cloud::AlertRule::kResourceSaturation);
  out.attack_requests = attack_requests;
  return out;
}

Outcome RunGruntVariant(const char* name, bool alternate) {
  attack::GruntConfig cfg;
  cfg.commander.alternate_paths = alternate;
  const auto spec = SocialNetworkSpec(kSetting);
  scenario::ScenarioRig rig(spec, 77);
  rig.RunUntil(Sec(40));
  const auto profile = scenario::TruthProfile(
      rig.app(), scenario::ScenarioRates(rig.app(), spec.workload));
  attack::GruntAttack grunt(rig.client(), cfg);
  const SimTime attack_start = scenario::RunGrunt(
      rig.sim(), grunt, Sec(60), &profile, std::string("the ") + name);
  return Measure(rig, name, attack_start, grunt.report().attack_requests);
}

Outcome RunTail() {
  scenario::ScenarioRig rig(SocialNetworkSpec(kSetting), 78);
  rig.RunUntil(Sec(40));
  attack::BotFarm bots({});
  baseline::TailAttack::Config cfg;
  cfg.url = *rig.app().FindRequestType("compose/text");
  cfg.rate = 800;
  cfg.count = 40;
  cfg.interval = Ms(800);
  baseline::TailAttack tail(rig.client(), bots, cfg);
  bool done = false;
  const SimTime attack_start = rig.sim().Now();
  tail.Run(attack_start + Sec(60), [&] { done = true; });
  scenario::RunUntilDone(rig.sim(), done, Sec(10), "the Tail attack");
  return Measure(rig, "Tail attack (single path)", attack_start,
                 tail.attack_requests());
}

Outcome RunFlood() {
  scenario::ScenarioRig rig(SocialNetworkSpec(kSetting), 79);
  rig.RunUntil(Sec(40));
  attack::BotFarm bots({Ms(200)});  // small, fast-reused pool
  baseline::FloodAttack::Config cfg;
  cfg.urls = rig.app().PublicDynamicTypes();
  cfg.rate = 2500;
  baseline::FloodAttack flood(rig.client(), bots, cfg);
  bool done = false;
  const SimTime attack_start = rig.sim().Now();
  flood.Run(attack_start + Sec(60), [&] { done = true; });
  scenario::RunUntilDone(rig.sim(), done, Sec(10), "the flood");
  return Measure(rig, "Brute-force flood", attack_start,
                 flood.attack_requests());
}

}  // namespace

int main() try {
  Banner("Ablation: attack strategy — Grunt vs single-path vs flood",
         "only multi-path alternation reaches the damage goal while staying "
         "under every detector");

  util::ParallelRunner pool;
  std::printf("running Grunt (full), Grunt single-path, Tail attack, and "
              "flood...\n");
  std::fprintf(stderr, "dispatching on %u threads\n", pool.threads());
  // Each strategy deploys its own rig; fan the four campaigns out and keep
  // the fixed table order regardless of which finishes first.
  const std::vector<Outcome> outcomes =
      pool.Map<Outcome>(4, [](std::size_t i) {
        switch (i) {
          case 0:
            return RunGruntVariant("Grunt (alternating, all groups)", true);
          case 1:
            return RunGruntVariant("Grunt framework, single path/group",
                                   false);
          case 2:
            return RunTail();
          default:
            return RunFlood();
        }
      });

  Table table({"Strategy", "AvgRT base (ms)", "AvgRT att (ms)", "RT factor",
               "CPU att (%)", "Scale acts", "Attrib alerts", "Sat alerts",
               "Attack reqs"});
  for (const auto& o : outcomes) {
    table.AddRow({o.strategy, Table::Num(o.base_rt), Table::Num(o.att_rt),
                  Table::Num(o.rt_factor(), 1), Table::Num(o.att_cpu, 0),
                  Table::Int(static_cast<std::int64_t>(o.scale_actions)),
                  Table::Int(static_cast<std::int64_t>(o.attributed_alerts)),
                  Table::Int(static_cast<std::int64_t>(o.saturation_alerts)),
                  Table::Int(static_cast<std::int64_t>(o.attack_requests))});
  }
  std::printf("\n");
  table.Print(std::cout);
  std::printf("\npaper (Sec VII): single-path attacks 'may not meet either "
              "the damage goal or stealthiness requirements' on "
              "microservices; floods are trivially detected\n");

  // The claim above is the bench's verdict, not just a caption.
  const Outcome& grunt = outcomes[0];
  std::vector<const char*> missed;
  if (!(grunt.rt_factor() > outcomes[1].rt_factor() &&
        outcomes[1].rt_factor() > outcomes[2].rt_factor())) {
    missed.push_back("RT factor is not Grunt > single-path > Tail attack");
  }
  if (grunt.scale_actions > 0 || grunt.attributed_alerts > 0 ||
      grunt.saturation_alerts > 0) {
    missed.push_back("Grunt drew a scale action or an alert");
  }
  if (outcomes[3].attributed_alerts == 0) {
    missed.push_back("the flood drew no attributable alert");
  }
  for (const char* m : missed) std::fprintf(stderr, "missed target: %s\n", m);
  return missed.empty() ? 0 : 1;
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
