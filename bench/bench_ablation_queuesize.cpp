// Ablation for Sec VI "Impact of microservice's queue size": scales every
// backend thread pool (queue) and re-runs the calibrated Grunt campaign.
//
// Expected shape: larger queues force the attacker to spend more volume
// (bigger calibrated bursts / more requests) but do NOT stop the attack —
// "using very large queue sizes in microservices could not address Grunt".
//
// Exits 1, naming each miss on stderr, unless the attack requests rise
// strictly with the queue scale, the RT factor (attack over baseline mean
// RT) never rises with it, and every RT factor stays above 5x.
//
// The four queue scales are independent campaigns with one seed; they fan
// out on util::ParallelRunner and print in table order, so stdout is the
// same at any GRUNT_BENCH_THREADS.

#include <cstdio>
#include <exception>
#include <iostream>
#include <iterator>

#include "rig.h"
#include "scenario/builtin_apps.h"
#include "util/parallel_runner.h"

using namespace grunt;
using namespace grunt::bench;

namespace {

/// The Sec VI claim's floor: a bigger queue may blunt the attack, not stop
/// it.
constexpr double kMinRtFactor = 5.0;

struct QueueResult {
  std::int32_t um_threads = 0;
  double base_rt = 0, att_rt = 0;
  std::uint64_t attack_requests = 0;
  double mean_burst_volume = 0;
  double pmb_ms = 0;

  double rt_factor() const { return base_rt > 0 ? att_rt / base_rt : 0; }
};

QueueResult Run(double queue_scale) {
  scenario::DeploymentParams deploy;
  deploy.queue_scale = queue_scale;
  auto spec = scenario::SocialNetworkScenario(deploy);
  // Only the attack's cost is measured: no operator reacts to it.
  spec.operators.autoscaler_enabled = false;
  spec.operators.ids_enabled = false;
  scenario::ScenarioRig rig(spec, 91);
  rig.RunUntil(Sec(40));
  const auto& app = rig.app();
  const auto profile =
      scenario::TruthProfile(app, scenario::ScenarioRates(app, spec.workload));
  attack::GruntAttack grunt(rig.client(), {});
  const SimTime attack_start =
      scenario::RunGrunt(rig.sim(), grunt, Sec(60), &profile,
                         "the campaign at queue scale " +
                             Table::Num(queue_scale, 1));

  const auto& report = grunt.report();
  RunningStats burst_vol;
  for (const auto& g : report.groups) {
    for (const auto& b : g.bursts) burst_vol.Add(b.count);
  }
  QueueResult out;
  out.um_threads =
      app.service(*app.FindService("compose-post")).threads_per_replica;
  out.base_rt = rig.rt_monitor().LegitWindow(Sec(15), Sec(40)).mean();
  out.att_rt = rig.rt_monitor()
                   .LegitWindow(attack_start + Sec(5), attack_start + Sec(60))
                   .mean();
  out.attack_requests = report.attack_requests;
  out.mean_burst_volume = burst_vol.mean();
  out.pmb_ms = report.MeanPmbMs();
  return out;
}

}  // namespace

int main() try {
  Banner("Ablation: queue (thread-pool) size vs attack cost and damage",
         "larger queues raise the attack volume needed but don't stop it");

  const double scales[] = {0.5, 1.0, 2.0, 4.0};
  for (const double queue_scale : scales) {
    std::printf("running queue_scale=%.1f...\n", queue_scale);
  }
  util::ParallelRunner pool;  // GRUNT_BENCH_THREADS threads
  const auto results = pool.Map<QueueResult>(
      std::size(scales), [&](std::size_t i) { return Run(scales[i]); });

  Table table({"Queue scale", "UM threads", "AvgRT base (ms)",
               "AvgRT att (ms)", "RT factor", "Attack reqs", "Mean burst vol",
               "P_MB (ms)"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const QueueResult& r = results[i];
    table.AddRow({Table::Num(scales[i], 1), Table::Int(r.um_threads),
                  Table::Num(r.base_rt), Table::Num(r.att_rt),
                  Table::Num(r.rt_factor(), 1),
                  Table::Int(static_cast<std::int64_t>(r.attack_requests)),
                  Table::Num(r.mean_burst_volume, 1), Table::Num(r.pmb_ms, 0)});
  }
  std::printf("\n");
  table.Print(std::cout);
  std::printf("\npaper (Sec VI): bigger queues need more attack volume (and "
              "cost the operator more hardware) but the blocking effects "
              "persist\n");

  // The claim above is the bench's verdict, not just a caption.
  bool ok = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const QueueResult& r = results[i];
    if (!(r.rt_factor() > kMinRtFactor)) {
      std::fprintf(stderr,
                   "missed target: queue scale %.1f: RT factor %.1fx is not "
                   "above %.0fx\n",
                   scales[i], r.rt_factor(), kMinRtFactor);
      ok = false;
    }
    if (i == 0) continue;
    const QueueResult& prev = results[i - 1];
    if (!(r.attack_requests > prev.attack_requests)) {
      std::fprintf(stderr,
                   "missed target: queue scale %.1f: %llu attack requests, "
                   "not more than scale %.1f's %llu\n",
                   scales[i],
                   static_cast<unsigned long long>(r.attack_requests),
                   scales[i - 1],
                   static_cast<unsigned long long>(prev.attack_requests));
      ok = false;
    }
    if (r.rt_factor() > prev.rt_factor()) {
      std::fprintf(stderr,
                   "missed target: queue scale %.1f: RT factor %.1fx rose "
                   "above scale %.1f's %.1fx\n",
                   scales[i], r.rt_factor(), scales[i - 1], prev.rt_factor());
      ok = false;
    }
  }
  return ok ? 0 : 1;
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
