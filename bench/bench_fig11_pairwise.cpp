// Reproduces Fig 11: "Pairwise dependency profiling" — the response time of
// victim sample probes as the profiling-burst volume grows, in both burst
// orders, for (a) a parallel-dependency pair and (b) a sequential pair.
//
// Expected shape:
//  (a) parallel  (compose/media vs compose/url): neither direction
//      interferes at low volume; both kick in past the overflow volume.
//  (b) sequential (compose/poll vs compose/media): the upstream path
//      (compose/poll, bottleneck = compose-post) interferes at EVERY
//      volume; the downstream path needs volume.
//
// Every probe runs on its own fresh deployment with its own seed, so the
// cells fan out on util::ParallelRunner and the table is the same at any
// GRUNT_BENCH_THREADS.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/burst.h"
#include "rig.h"
#include "util/parallel_runner.h"

using namespace grunt;
using namespace grunt::bench;

namespace {

struct Probe {
  double victim_median_ms = 0;
  double burst_pmb_ms = 0;
};

microsvc::RequestTypeId RequestType(const ScenarioRig& rig,
                                    const std::string& name) {
  const auto t = rig.app().FindRequestType(name);
  if (!t) throw std::invalid_argument("unknown request type \"" + name + "\"");
  return *t;
}

/// Median probe RT of `url` on an idle-attacker deployment.
double BaselineMs(const CloudSetting& setting, const std::string& url,
                  std::uint64_t seed) {
  ScenarioRig rig(SocialNetworkSpec(setting), seed);
  const auto type = RequestType(rig, url);
  rig.RunUntil(Sec(15));
  attack::BotFarm bots({});
  double baseline = 0;
  bool done = false;
  attack::ProbeSender::Send(rig.client(), bots, type, 10, Ms(300),
                            [&](attack::BurstObservation obs) {
                              baseline = obs.MedianRtMs();
                              done = true;
                            });
  RunUntilDone(rig.sim(), done, Sec(1), "the " + url + " baseline probes");
  return baseline;
}

/// One direction of one pairwise test at one volume: `burst` bursts while
/// `victim` is probed (fresh state isolates the volumes from each other).
Probe Direction(const CloudSetting& setting, const std::string& burst,
                const std::string& victim, std::int32_t volume,
                std::uint64_t seed) {
  ScenarioRig rig(SocialNetworkSpec(setting), seed);
  const auto burst_type = RequestType(rig, burst);
  const auto victim_type = RequestType(rig, victim);
  rig.RunUntil(Sec(15));
  attack::BotFarm bots({});
  Probe out;
  int pending = 2;  // the burst and the probes
  bool done = false;
  const double rate = 800.0;
  attack::BurstSender::Send(
      rig.client(), bots, burst_type, /*heavy=*/true, rate, volume,
      /*attack_traffic=*/false, [&](attack::BurstObservation obs) {
        out.burst_pmb_ms = obs.EstimatePmbMs();
        done = --pending == 0;
      });
  const auto first_probe =
      static_cast<SimDuration>(volume / rate * 0.5 * 1e6);
  rig.sim().After(first_probe, [&] {
    attack::ProbeSender::Send(rig.client(), bots, victim_type, 5, Ms(30),
                              [&](attack::BurstObservation obs) {
                                out.victim_median_ms = obs.MedianRtMs();
                                done = --pending == 0;
                              });
  });
  RunUntilDone(rig.sim(), done, Sec(1),
               "the " + victim + " probes under a " + burst + " burst");
  return out;
}

void RunPair(util::ParallelRunner& pool, const CloudSetting& setting,
             const char* label, const std::string& name_a,
             const std::string& name_b) {
  const auto bases = pool.Map<double>(2, [&](std::size_t i) {
    return BaselineMs(setting, i == 0 ? name_a : name_b, /*seed=*/7 + i);
  });
  const double base_a = bases[0];
  const double base_b = bases[1];
  std::printf("\n--- %s: a=%s (baseline %.1fms), b=%s (baseline %.1fms) "
              "---\n",
              label, name_a.c_str(), base_a, name_b.c_str(), base_b);
  std::printf("%10s | %24s | %24s\n", "volume", "probe RT of b, a bursts",
              "probe RT of a, b bursts");
  std::printf("%10s | %14s %9s | %14s %9s\n", "(reqs)", "median (ms)",
              "interf?", "median (ms)", "interf?");
  const std::vector<std::int32_t> volumes{12, 24, 48, 96};
  // Cell 2v bursts a and probes b at volumes[v]; cell 2v+1 the reverse.
  const auto probes =
      pool.Map<Probe>(volumes.size() * 2, [&](std::size_t j) {
        const std::int32_t volume = volumes[j / 2];
        const bool forward = j % 2 == 0;
        return Direction(setting, forward ? name_a : name_b,
                         forward ? name_b : name_a, volume,
                         /*seed=*/static_cast<std::uint64_t>(
                             (forward ? 100 : 200) + volume));
      });
  for (std::size_t v = 0; v < volumes.size(); ++v) {
    const Probe& ab = probes[2 * v];
    const Probe& ba = probes[2 * v + 1];
    const auto verdict = [](double rt, double base) {
      return rt > std::max(3.0 * base, base + 60.0) ? "YES" : "no";
    };
    std::printf("%10d | %14.1f %9s | %14.1f %9s\n", volumes[v],
                ab.victim_median_ms, verdict(ab.victim_median_ms, base_b),
                ba.victim_median_ms, verdict(ba.victim_median_ms, base_a));
  }
}

}  // namespace

int main() try {
  Banner("Fig 11: pairwise dependency profiling",
         "(a) parallel pair: interference appears only above a volume "
         "threshold, both directions; (b) sequential pair: the upstream "
         "path interferes at every volume");
  const CloudSetting setting{"EC2-7K", 7000, 1.0, 1};
  util::ParallelRunner pool;  // GRUNT_BENCH_THREADS threads
  std::fprintf(stderr, "probing on %u workers\n", pool.threads());
  RunPair(pool, setting, "Fig 11(a): PARALLEL pair", "compose/media",
          "compose/url");
  RunPair(pool, setting, "Fig 11(b): SEQUENTIAL pair (a upstream)",
          "compose/poll", "compose/media");
  return 0;
} catch (const std::exception& e) {  // e.g. a run that hit kRunCap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
