#include "scenario/generate.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "scenario/builder.h"
#include "util/rng.h"

namespace grunt::scenario {

ScenarioSpec GenerateMubench(std::uint64_t seed, const MubenchParams& p,
                             const DeploymentParams& deploy) {
  if (p.services < 8 || p.groups < 1 || p.paths_per_group < 2) {
    throw std::invalid_argument("GenerateMubench: bad params");
  }
  // Upper bound on services the embedded structure can consume (gateway +
  // per-group UM/workers/stores/mids/audit + singletons).
  const std::int32_t structural =
      1 + p.groups * (2 + 3 * p.paths_per_group) + 2 * p.singleton_paths;
  if (p.services < structural) {
    throw std::invalid_argument(
        "GenerateMubench: services too small for requested structure "
        "(need >= " +
        std::to_string(structural) + ")");
  }
  // The stream name and draw order below are a compatibility contract with
  // the legacy reference builder in tests/test_scenario_equivalence.cpp and
  // the shipped specs/mubench-*.json: same (seed, shape) -> same topology.
  RngStream rng(seed, "mubench.topology");
  SpecBuilder b("mubench-" + std::to_string(p.services) + "-s" +
                    std::to_string(seed),
                deploy);
  b.SetNetLatency(Us(400));

  std::int32_t remaining = p.services;
  auto svc = [&](std::string name, std::int32_t threads,
                 std::int32_t cores) -> std::string {
    --remaining;
    // initial_replicas 1, max_replicas 8 (the AddService default for 1).
    return b.AddService(std::move(name), threads, cores, 1);
  };

  const auto gateway = svc("gateway", 4096, 16);

  auto light_demand = [&] { return Us(300 + rng.NextInt(0, 900)); };
  auto heavy_demand = [&] { return Us(8000 + rng.NextInt(0, 3500)); };

  std::vector<MixEntrySpec> mix;
  auto add_type = [&](std::string name, std::vector<CallSpec> calls,
                      double weight) {
    mix.push_back({name, weight});
    // Sequenced draws: request bytes strictly before response bytes (the
    // argument list of a call would leave the order unspecified).
    const std::int64_t req_bytes = 500 + rng.NextInt(0, 1500);
    const std::int64_t resp_bytes = 1000 + rng.NextInt(0, 9000);
    b.AddChainEndpoint(std::move(name), std::move(calls), 1.6, req_bytes,
                       resp_bytes);
  };

  for (std::int32_t g = 0; g < p.groups; ++g) {
    const std::string gp = "g" + std::to_string(g);
    // Shared upstream service of the group: small slot pool so cross-tier
    // overflow can reach it within the stealth volume budget.
    const auto um = svc(gp + "-frontend", 20, 4);
    for (std::int32_t pi = 0; pi < p.paths_per_group; ++pi) {
      const std::string pp = gp + "-p" + std::to_string(pi);
      const auto worker = svc(pp + "-worker", 64, 2);
      const auto leaf = svc(pp + "-store", 128, 2);
      std::vector<CallSpec> calls;
      calls.push_back({gateway, Us(300), 0});
      calls.push_back({um, Us(1400), Us(600)});
      // 0-1 light intermediate services for topology variety.
      if (rng.NextBool(0.5) && remaining > p.groups) {
        const auto mid = svc(pp + "-mid", 96, 2);
        calls.push_back({mid, light_demand(), 0});
      }
      calls.push_back({worker, heavy_demand(), Us(800)});
      calls.push_back({leaf, light_demand(), 0});
      add_type("api/" + pp, std::move(calls), 1.0);
    }
    if (g < p.upstream_paths) {
      // Path bottlenecking on the shared UM itself: the group's sequential
      // "upstream" member. Admin traffic is rare relative to the APIs.
      const auto leaf = svc(gp + "-audit", 128, 2);
      add_type("api/" + gp + "-admin",
               {{gateway, Us(300), 0},
                {um, Us(24000), Us(1200)},
                {leaf, light_demand(), 0}},
               0.25);
    }
  }

  for (std::int32_t s = 0; s < p.singleton_paths; ++s) {
    const std::string sp = "solo" + std::to_string(s);
    const auto worker = svc(sp + "-worker", 64, 2);
    const auto leaf = svc(sp + "-store", 128, 2);
    add_type("api/" + sp,
             {{gateway, Us(300), 0},
              {worker, heavy_demand(), Us(800)},
              {leaf, light_demand(), 0}},
             1.0);
  }

  // Pad to the requested service count with services public URLs never
  // reach (cron jobs, internal pipelines, replicated sidecars).
  std::int32_t pad = 0;
  while (remaining > 0) {
    svc("internal-" + std::to_string(pad++), 32, 1);
  }

  ScenarioSpec scenario;
  scenario.name = "mubench-s" + std::to_string(seed);
  scenario.description = "Seeded random topology (" +
                         std::to_string(p.services) + " services, " +
                         std::to_string(p.groups) +
                         " dependency groups), uBench-style generator";
  scenario.topology = std::move(b).Build();
  scenario.workload.users = deploy.users > 0 ? deploy.users : 4000;
  scenario.workload.mix = std::move(mix);
  return scenario;
}

}  // namespace grunt::scenario
