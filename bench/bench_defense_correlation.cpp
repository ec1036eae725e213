// Extension bench (paper Sec VI, "possible defense and mitigation"): the
// volley/millibottleneck correlation defense against the real Grunt
// campaign, and the attacker's counter-move — recruiting more bots so each
// session sends fewer requests.
//
// Expected shape: with the default farm (bots reused every ~3.5 s) most
// bot sessions are flagged at zero false positives; as the attacker spaces
// bot reuse out (more bots, fewer requests per session), detection decays —
// quantifying the "attackers can use more bots" remark of Sec V-B and the
// cost of the paper's sketched defense.

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "cloud/defense.h"
#include "rig.h"

using namespace grunt;
using namespace grunt::bench;

namespace {

struct Row {
  double spacing_s;
  std::size_t bots = 0;
  std::size_t volleys = 0, confirmed = 0;
  std::size_t judged_bots = 0, flagged_bots = 0;
  std::size_t judged_users = 0, flagged_users = 0;
  double att_rt = 0;
};

Row Run(SimDuration bot_spacing, std::uint64_t seed) {
  const CloudSetting setting{"EC2-7K", 7000, 1.0, 1};
  const auto spec = SocialNetworkSpec(setting);
  scenario::ScenarioRig rig(spec, seed);
  cloud::ResourceMonitor fine(rig.cluster(),
                              {scenario::kFineMonitorPeriod, "fine"});
  fine.Start();
  cloud::CorrelationDefense defense(rig.cluster(), &fine);
  defense.Start();
  rig.RunUntil(Sec(40));

  const auto profile = scenario::TruthProfile(
      rig.app(), scenario::ScenarioRates(rig.app(), spec.workload));
  attack::GruntConfig cfg;
  cfg.botfarm.min_spacing = bot_spacing;
  attack::GruntAttack grunt(rig.client(), cfg);
  const SimTime attack_start =
      scenario::RunGrunt(rig.sim(), grunt, Sec(60), &profile,
                         "the campaign at seed " + std::to_string(seed));

  Row row;
  row.spacing_s = ToSeconds(bot_spacing);
  row.bots = grunt.report().bots_used;
  const SimTime att_to = attack_start + Sec(60);
  const auto volleys = defense.Volleys(attack_start, att_to);
  row.volleys = volleys.volleys;
  row.confirmed = volleys.confirmed;
  for (const auto& v : defense.Analyze(attack_start, att_to)) {
    const bool bot = v.client_id >= 9'000'000;  // BotFarm id base
    (bot ? row.judged_bots : row.judged_users) += 1;
    if (v.flagged) (bot ? row.flagged_bots : row.flagged_users) += 1;
  }
  row.att_rt = rig.rt_monitor()
                   .LegitWindow(attack_start + Sec(5), att_to)
                   .mean();
  return row;
}

}  // namespace

int main() try {
  Banner("Extension: correlation defense vs attacker bot budget",
         "default farms are detectable at zero false positives; spacing out "
         "bot reuse (more bots) degrades detection");

  Table table({"Bot reuse spacing (s)", "Bots used", "Volleys",
               "Confirmed by fine mon.", "Bot sessions flagged",
               "Legit sessions flagged", "AvgRT att (ms)"});
  for (double spacing_s : {3.5, 10.0, 30.0}) {
    std::printf("running with %.1fs bot spacing...\n", spacing_s);
    const Row r = Run(SecF(spacing_s), 300 + static_cast<std::uint64_t>(spacing_s));
    table.AddRow(
        {Table::Num(spacing_s, 1),
         Table::Int(static_cast<std::int64_t>(r.bots)),
         Table::Int(static_cast<std::int64_t>(r.volleys)),
         Table::Num(r.volleys
                        ? 100.0 * static_cast<double>(r.confirmed) /
                              static_cast<double>(r.volleys)
                        : 0.0, 0) + "%",
         Table::Int(static_cast<std::int64_t>(r.flagged_bots)) + "/" +
             Table::Int(static_cast<std::int64_t>(r.judged_bots)),
         Table::Int(static_cast<std::int64_t>(r.flagged_users)) + "/" +
             Table::Int(static_cast<std::int64_t>(r.judged_users)),
         Table::Num(r.att_rt, 0)});
  }
  std::printf("\n");
  table.Print(std::cout);
  std::printf("\ntakeaway: the defense needs per-request logging + 100ms "
              "monitoring; the attacker's counter is a linearly larger bot "
              "farm (paper Sec V-B: 'use more bots')\n");
  return 0;
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
