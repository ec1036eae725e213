// Ablation: WHY the Grunt design (multi-path alternation within dependency
// groups) — against (1) the same framework locked to a single path per
// group (Tail-attack style [51]), (2) the standalone Tail attack on the
// single heaviest path, and (3) a brute-force flood.
//
// Expected shape: Grunt achieves the damage goal stealthily; single-path
// variants deliver far less system-wide damage (or lose stealth trying);
// the flood maximizes damage but lights up every detector.

#include <cstdio>
#include <iostream>

#include "baseline/tail_attack.h"
#include "rig.h"
#include "util/parallel_runner.h"

using namespace grunt;
using namespace grunt::bench;

namespace {

struct Outcome {
  std::string strategy;
  double base_rt = 0, att_rt = 0;
  double att_cpu = 0;
  std::size_t scale_actions = 0;
  std::size_t attributed_alerts = 0;
  std::size_t saturation_alerts = 0;
  std::uint64_t attack_requests = 0;
};

Outcome RunGruntVariant(const char* name, bool alternate,
                        std::size_t max_groups) {
  const CloudSetting setting{"EC2-7K", 7000, 1.0, 1};
  attack::GruntConfig cfg;
  cfg.commander.alternate_paths = alternate;
  cfg.max_groups = max_groups;
  const auto spec = SocialNetworkSpec(setting);
  ScenarioRig rig(spec, 77);
  rig.RunUntil(Sec(40));
  const auto profile =
      TruthProfile(rig.app(), ScenarioRates(rig.app(), spec.workload));
  attack::GruntAttack grunt(rig.client(), cfg);
  bool done = false;
  SimTime attack_start = 0;
  grunt.OnAttackPhaseStart([&](SimTime at) { attack_start = at; });
  grunt.RunWithProfile(profile, Sec(60),
                       [&](const attack::GruntReport&) { done = true; });
  rig.RunUntilFlag(done, Sec(2400));

  Outcome out;
  out.strategy = name;
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
  out.attack_requests = grunt.report().attack_requests;
  return out;
}

Outcome RunTail() {
  const CloudSetting setting{"EC2-7K", 7000, 1.0, 1};
  ScenarioRig rig(SocialNetworkSpec(setting), 78);
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
  rig.RunUntilFlag(done, Sec(2400));

  Outcome out;
  out.strategy = "Tail attack (single path)";
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
  out.attack_requests = tail.attack_requests();
  return out;
}

Outcome RunFlood() {
  const CloudSetting setting{"EC2-7K", 7000, 1.0, 1};
  ScenarioRig rig(SocialNetworkSpec(setting), 79);
  rig.RunUntil(Sec(40));
  attack::BotFarm bots({Ms(200), 8'000'000});  // small, fast-reused pool
  baseline::FloodAttack::Config cfg;
  cfg.urls = rig.app().PublicDynamicTypes();
  cfg.rate = 2500;
  baseline::FloodAttack flood(rig.client(), bots, cfg);
  bool done = false;
  const SimTime attack_start = rig.sim().Now();
  flood.Run(attack_start + Sec(60), [&] { done = true; });
  rig.RunUntilFlag(done, Sec(2400));

  Outcome out;
  out.strategy = "Brute-force flood";
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
  out.attack_requests = flood.attack_requests();
  return out;
}

}  // namespace

int main() {
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
            return RunGruntVariant("Grunt (alternating, all groups)", true, 0);
          case 1:
            return RunGruntVariant("Grunt framework, single path/group",
                                   false, 0);
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
                  Table::Num(o.base_rt > 0 ? o.att_rt / o.base_rt : 0, 1),
                  Table::Num(o.att_cpu, 0),
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
  return 0;
}
