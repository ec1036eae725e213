// Reproduces Fig 13: fine-grained (100 ms) runtime analysis of one
// dependency group under attack — (a) attack vs legit request rate,
// (b) millibottlenecks ALTERNATING among the group's bottleneck services,
// (c) the persistent queue at the shared upstream service (compose-post),
// (d) the resulting legit response time.
//
// Expected shape: sub-500ms CPU saturation pulses rotate across
// text/media/url/mention services (visible only at 100 ms granularity), the
// compose-post queue stays persistently high, legit RT sits near the 1 s
// damage goal.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <utility>
#include <vector>

#include "rig.h"

int main() try {
  using namespace grunt;
  using namespace grunt::bench;

  Banner("Fig 13: 100ms zoom-in on one dependency group under attack",
         "alternating millibottlenecks, persistent shared-UM queue, ~1s RT");

  const CloudSetting setting{"EC2-12K", 12000, 1.0, 2};
  const auto spec = SocialNetworkSpec(setting);
  scenario::ScenarioRig rig(spec, 12);
  cloud::ResourceMonitor fine(rig.cluster(),
                              {scenario::kFineMonitorPeriod, "fine"});
  fine.Start();

  // Attack vs legit submissions over the run (Fig 13a).
  std::int64_t attack_count = 0, legit_count = 0;
  rig.cluster().telemetry().submit().Subscribe(
      [&](const telemetry::RequestSubmit& e) {
        if (e.cls == microsvc::RequestClass::kAttack) {
          ++attack_count;
        } else if (e.cls == microsvc::RequestClass::kLegit) {
          ++legit_count;
        }
      });
  // (end, RT ms) of legit completions on the attacked group's paths (Fig 13d
  // plots the dependency group, not the whole system), in `end` order.
  std::vector<std::pair<SimTime, double>> group_done;
  rig.cluster().telemetry().completion().Subscribe(
      [&](const microsvc::CompletionRecord& rec) {
        if (rec.cls == microsvc::RequestClass::kLegit &&
            rig.app().request_type(rec.type).name.rfind("compose/", 0) == 0) {
          group_done.emplace_back(rec.end, ToMillis(rec.end - rec.start));
        }
      });

  rig.RunUntil(Sec(40));
  const auto profile = scenario::TruthProfile(
      rig.app(), scenario::ScenarioRates(rig.app(), spec.workload));
  attack::GruntConfig cfg;
  cfg.max_groups = 1;  // the compose group (largest)
  attack::GruntAttack grunt(rig.client(), cfg);
  const SimTime attack_start = scenario::RunGrunt(
      rig.sim(), grunt, Sec(40), &profile, "the Fig 13 campaign");

  const auto& app = rig.app();
  const char* services[] = {"compose-post", "text-service", "media-service",
                            "url-shorten", "user-mention"};
  std::printf("\nattacked group: compose (m=%d paths)\n",
              grunt.report().groups.empty()
                  ? 0
                  : grunt.report().groups.front().paths_used);
  std::printf("zoomed window: 8 seconds of steady-state attack, 100 ms "
              "samples\n\n");
  std::printf("%7s |", "t(ms)");
  for (const char* s : services) std::printf(" %-6.6s", s + 0);
  std::printf(" | %9s | %8s\n", "UMqueue", "RT(ms)");
  std::printf("          (CPU utilization %% per 100ms; '**' marks >95%% — a "
              "millibottleneck sample)\n");

  const SimTime from = attack_start + Sec(10);
  for (SimTime t = from; t < from + Sec(8); t += Ms(100)) {
    std::printf("%7lld |", static_cast<long long>(ToMillis(t - from)));
    for (const char* name : services) {
      const auto sid = *app.FindService(name);
      const double u = fine.cpu_util(sid).WindowMean(t, t + Ms(100));
      if (u > 0.95) {
        std::printf("   **  ");
      } else {
        std::printf(" %5.0f ", u * 100);
      }
    }
    const auto cp = *app.FindService("compose-post");
    const double q = fine.queue_len(cp).WindowMean(t, t + Ms(100));
    Samples group_rt;
    auto it = std::partition_point(group_done.begin(), group_done.end(),
                                   [t](const auto& c) { return c.first < t; });
    for (; it != group_done.end() && it->first < t + Ms(500); ++it) {
      group_rt.Add(it->second);
    }
    std::printf("| %9.0f | %8.0f\n", q, group_rt.mean());
  }

  // Summary: millibottleneck lengths per service from the fine monitor.
  std::printf("\nper-service saturation pulses over the attack window "
              "(100ms samples >95%%):\n");
  const SimTime att_to = attack_start + Sec(40);
  for (const char* name : services) {
    const auto sid = *app.FindService(name);
    const auto& series = fine.cpu_util(sid);
    std::int64_t hot = 0, total = 0;
    for (const auto& p : series.points()) {
      if (p.time < attack_start || p.time >= att_to) continue;
      ++total;
      hot += (p.value > 0.95);
    }
    const SimDuration longest =
        series.LongestRunAbove(0.95, attack_start, att_to);
    std::printf("  %-14s: %4lld/%lld hot samples, longest run %lld ms "
                "(stealth cap 500 ms)\n",
                name, static_cast<long long>(hot),
                static_cast<long long>(total),
                static_cast<long long>(ToMillis(longest)));
  }
  std::printf("\nattack traffic: %lld attack requests vs %lld legit in the "
              "run (%.1f%%)\n",
              static_cast<long long>(attack_count),
              static_cast<long long>(legit_count),
              100.0 * static_cast<double>(attack_count) /
                  static_cast<double>(std::max<std::int64_t>(1, legit_count)));
  std::printf("paper (Fig 13): millibottlenecks alternate across bottleneck "
              "services; compose-post queue persists; RT ~1s\n");
  return 0;
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
