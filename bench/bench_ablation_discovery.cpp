// Ablation for the paper's Limitation #3 (Sec VI): "some dynamic requests
// require input parameters, attackers may not be able to cover all possible
// valid parameter combinations, which may leave some critical paths
// undiscovered." We sweep the crawler's coverage of the dynamic URL catalog
// and re-run the full blackbox campaign.
//
// Expected shape: damage degrades gracefully with coverage — missing paths
// shrink the dependency groups (fewer services to alternate over), but the
// attack keeps working as long as a few members of each group survive.
//
// The four coverages are independent campaigns with one seed; they fan out
// on util::ParallelRunner and print in table order, so stdout is the same
// at any GRUNT_BENCH_THREADS.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <iterator>
#include <string>

#include "rig.h"
#include "util/parallel_runner.h"

using namespace grunt;
using namespace grunt::bench;

namespace {

struct CoverageResult {
  std::size_t urls = 0, multi = 0, largest = 0;
  double base_rt = 0, att_rt = 0;
};

/// One campaign whose crawler finds `coverage` of the dynamic URLs.
CoverageResult Run(double coverage) {
  const CloudSetting setting{"EC2-7K", 7000, 1.0, 1};
  ScenarioRig rig(SocialNetworkSpec(setting), 400);
  attack::SimTargetClient partial_client(rig.cluster(),
                                         {coverage, /*crawl_seed=*/9});
  rig.RunUntil(Sec(40));

  attack::GruntAttack grunt(partial_client, {});
  const SimTime attack_start =
      RunGrunt(rig.sim(), grunt, Sec(60), nullptr,
               "the campaign at coverage " + Table::Num(coverage, 2));

  const auto& report = grunt.report();
  CoverageResult out;
  out.urls = report.profile.candidates.size();
  for (const auto& g : report.profile.groups) {
    out.multi += (g.size() > 1);
    out.largest = std::max(out.largest, g.size());
  }
  out.base_rt = rig.rt_monitor().LegitWindow(Sec(15), Sec(40)).mean();
  out.att_rt = rig.rt_monitor()
                   .LegitWindow(attack_start + Sec(5), attack_start + Sec(60))
                   .mean();
  return out;
}

}  // namespace

int main() try {
  Banner("Ablation: URL-discovery coverage (paper Limitation #3)",
         "damage degrades gracefully as the crawler misses paths");

  const double coverages[] = {1.0, 0.75, 0.5, 0.3};
  for (const double coverage : coverages) {
    std::printf("running coverage=%.2f...\n", coverage);
  }
  util::ParallelRunner pool;  // GRUNT_BENCH_THREADS threads
  const auto results = pool.Map<CoverageResult>(
      std::size(coverages), [&](std::size_t i) { return Run(coverages[i]); });

  Table table({"Crawl coverage", "URLs found", "Groups (multi)",
               "Largest group", "AvgRT base (ms)", "AvgRT att (ms)",
               "RT factor"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CoverageResult& r = results[i];
    table.AddRow({Table::Num(coverages[i], 2),
                  Table::Int(static_cast<std::int64_t>(r.urls)),
                  Table::Int(static_cast<std::int64_t>(r.multi)),
                  Table::Int(static_cast<std::int64_t>(r.largest)),
                  Table::Num(r.base_rt), Table::Num(r.att_rt),
                  Table::Num(r.base_rt > 0 ? r.att_rt / r.base_rt : 0, 1)});
  }
  std::printf("\n");
  table.Print(std::cout);
  std::printf("\npaper (Sec VI limitations): undiscovered paths shrink the "
              "attack surface; coverage of the popular endpoints is what "
              "matters\n");
  return 0;
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
