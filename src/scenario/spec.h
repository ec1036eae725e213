#pragma once

// Declarative scenario IR — the data a spec file carries.
//
// A *scenario* is everything one experiment needs besides the attack under
// study: the application topology (services + endpoints as call-graph
// stages), the legitimate workload driving it, and the operator stack
// (monitors, autoscaler, IDS) watching it. Related simulators (uqSim,
// CloudNativeSim, µBench) get their coverage from exactly this kind of
// data-driven description: adding a scenario means writing a JSON file,
// not recompiling.
//
// Durations serialize as integer microseconds (`*_us` keys), matching the
// simulator's exact-integer time base, so a spec round-trip is lossless.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cloud/autoscaler.h"
#include "microsvc/types.h"

namespace grunt::scenario {

/// One RPC call issued from an endpoint's call graph: the target service
/// (by name — specs never reference numeric ids), the CPU demand before the
/// downstream call and after its reply, and an optional per-edge RPC policy.
struct CallSpec {
  CallSpec() = default;
  CallSpec(std::string service, SimDuration cpu_demand,
           SimDuration post_demand = 0,
           std::optional<microsvc::RpcPolicy> rpc = std::nullopt)
      : service(std::move(service)),
        cpu_demand(cpu_demand),
        post_demand(post_demand),
        rpc(std::move(rpc)) {}

  std::string service;
  SimDuration cpu_demand = 0;
  SimDuration post_demand = 0;
  std::optional<microsvc::RpcPolicy> rpc;

  friend bool operator==(const CallSpec&, const CallSpec&) = default;
};

/// One stage of an endpoint's call graph. Stages execute in sequence; the
/// calls inside one stage are logically parallel (a fan-out). The runtime
/// cluster executes a single synchronous chain, so the loader serializes a
/// stage's calls in declaration order — the paper's blocking effects only
/// depend on which services a path visits and in what order, which the
/// flattening preserves.
struct StageSpec {
  std::vector<CallSpec> calls;

  friend bool operator==(const StageSpec&, const StageSpec&) = default;
};

/// One public endpoint (== request type == execution path).
struct EndpointSpec {
  std::string name;
  std::vector<StageSpec> stages;
  double heavy_multiplier = 1.0;
  std::int64_t request_bytes = 600;
  std::int64_t response_bytes = 4000;
  bool is_static = false;       ///< served at the edge; never reaches backends
  SimDuration deadline = 0;     ///< end-to-end deadline, 0 = none

  friend bool operator==(const EndpointSpec&, const EndpointSpec&) = default;
};

/// The static application description: services (reusing the runtime
/// ServiceSpec — cores/threads/replicas/admission are already spec-shaped)
/// plus endpoints.
struct TopologySpec {
  std::string name = "app";
  SimDuration net_latency = Us(500);
  microsvc::ServiceTimeDist dist = microsvc::ServiceTimeDist::kExponential;
  std::optional<microsvc::RpcPolicy> default_rpc;
  std::vector<microsvc::ServiceSpec> services;
  std::vector<EndpointSpec> endpoints;

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

/// One entry of a workload's endpoint-popularity mix.
struct MixEntrySpec {
  std::string endpoint;
  double weight = 1.0;

  friend bool operator==(const MixEntrySpec&, const MixEntrySpec&) = default;
};

/// The legitimate workload of a scenario: either a closed-loop user
/// population with think times (the paper's default) or an open-loop
/// Poisson source (Table IV / trace-driven benches).
struct WorkloadSpec {
  enum class Kind : std::uint8_t { kClosedLoop, kOpenLoop };

  Kind kind = Kind::kClosedLoop;
  std::int32_t users = 1000;        ///< closed-loop population
  SimDuration think_mean = Sec(7);  ///< closed-loop think time
  double rate = 100.0;              ///< open-loop requests/second
  /// Endpoint popularity. Empty = uniform over the topology's public
  /// dynamic endpoints. Closed-loop users pick their next page from it
  /// memorylessly (BuildNavigator).
  std::vector<MixEntrySpec> mix;

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;
};

/// The operator stack deployed next to the application: which operators
/// run, and the autoscaler's provisioning delay. Their policy is the
/// paper's, fixed in code (cloud::AutoScaler's and cloud::Ids's constants;
/// the monitors sample every scenario::kCoarseMonitorPeriod).
struct OperatorSpec {
  bool autoscaler_enabled = true;
  cloud::AutoScaler::Config autoscaler;
  bool ids_enabled = true;

  friend bool operator==(const OperatorSpec&, const OperatorSpec&) = default;
};

/// A complete experiment scenario.
struct ScenarioSpec {
  std::string name;
  std::string description;
  TopologySpec topology;
  WorkloadSpec workload;
  OperatorSpec operators;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Serializes a scenario (or just a topology) to the JSON text format
/// documented in DESIGN.md §6. Deterministic: dump → parse → dump is
/// byte-stable.
std::string DumpScenario(const ScenarioSpec& spec);
std::string DumpTopology(const TopologySpec& spec);

/// Parses the JSON text format. Unknown keys are rejected (a typo in a
/// hand-written spec should fail loudly, not silently fall back to a
/// default); omitted keys take the struct defaults above. Throws
/// json::Error on malformed documents and std::invalid_argument on
/// semantic problems.
ScenarioSpec ParseScenario(const std::string& text);
TopologySpec ParseTopology(const std::string& text);

/// File convenience wrappers (errors mention the path). A saved file holds
/// exactly ScenarioFileText(spec): DumpScenario(spec) and a newline.
ScenarioSpec LoadScenarioFile(const std::string& path);
void SaveScenarioFile(const std::string& path, const ScenarioSpec& spec);
std::string ScenarioFileText(const ScenarioSpec& spec);

}  // namespace grunt::scenario
