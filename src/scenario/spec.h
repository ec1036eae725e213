#pragma once

// Declarative scenario IR — the data a spec file carries.
//
// A *scenario* is everything one experiment needs besides the attack under
// study: the application topology (services + endpoints as hop chains),
// the legitimate workload driving it, and the operator stack
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

/// The static application description, in the runtime's own types:
/// services are microsvc::ServiceSpec and endpoints are
/// microsvc::RequestTypeSpec, whose hop chains (the critical paths of
/// Fig 2(c)) name services by their index in `services`. The JSON text
/// names services by name; the codec maps the two.
struct TopologySpec {
  std::string name = "app";
  SimDuration net_latency = Us(500);
  microsvc::ServiceTimeDist dist = microsvc::ServiceTimeDist::kExponential;
  std::optional<microsvc::RpcPolicy> default_rpc;
  std::vector<microsvc::ServiceSpec> services;
  std::vector<microsvc::RequestTypeSpec> endpoints;

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

/// Serializes a scenario to the JSON text format documented in DESIGN.md
/// §6, writing each hop's service by name. Deterministic: dump → parse →
/// dump is byte-stable. Throws std::invalid_argument, naming the endpoint,
/// on a hop whose service id names no service.
std::string DumpScenario(const ScenarioSpec& spec);

/// Parses the JSON text format. Unknown keys are rejected (a typo in a
/// hand-written spec should fail loudly, not silently fall back to a
/// default); omitted keys take the struct defaults above. Throws
/// json::Error on malformed documents and std::invalid_argument on
/// semantic problems, among them a hop naming a service the topology
/// lacks (the message names the endpoint and the service).
ScenarioSpec ParseScenario(const std::string& text);

/// File convenience wrappers (errors mention the path). A saved file holds
/// exactly ScenarioFileText(spec): DumpScenario(spec) and a newline.
ScenarioSpec LoadScenarioFile(const std::string& path);
void SaveScenarioFile(const std::string& path, const ScenarioSpec& spec);
std::string ScenarioFileText(const ScenarioSpec& spec);

}  // namespace grunt::scenario
