#pragma once

// SpecBuilder: the one shared topology-construction utility behind every
// built-in app: service sizing and admission stamping, fan-in stage
// construction and static endpoints, once for SocialNetwork,
// HotelReservation and the µBench generator.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/spec.h"

namespace grunt::scenario {

/// Services with at least this many threads per replica are gateways:
/// effectively un-overflowable slot pools that never load-shed (the
/// exploited queues are always the small backend pools behind them).
inline constexpr std::int32_t kGatewayThreads = 1024;

/// The one deployment description shared by every built-in scenario
/// (SocialNetworkScenario, HotelReservationScenario, GenerateMubench).
/// Defaults reproduce the paper's configuration: no timeouts, no retries,
/// unbounded queues, no breakers, no degradation layer.
///
/// Sizing knobs apply to the hand-modeled topologies only; the µBench
/// generator draws its own sizes and ignores them. Everything else is
/// stamped by SpecBuilder, identically for every scenario: `dist` and
/// `default_rpc` onto the topology, the admission and degradation knobs
/// onto every backend service (gateways, threads >= kGatewayThreads, never
/// shed), `endpoint_deadline` onto every dynamic endpoint, and
/// `client_rpc`/`edge_rpc` onto hops 0 and 1 of every chain endpoint.
struct DeploymentParams {
  // --- sizing (SocialNetwork, HotelReservation) ---
  /// Scales the initial replica count of backend services (the paper's
  /// higher-workload settings run against proportionally larger clusters).
  std::int32_t replica_scale = 1;
  /// Relative capacity of the hosting cloud (EC2 = 1.0; models the
  /// slightly different vCPU throughput across providers).
  double capacity_scale = 1.0;
  /// Multiplies every backend service's thread-pool (queue) size; the
  /// Sec VI "Impact of microservice's queue size" knob. SocialNetwork only.
  double queue_scale = 1.0;

  // --- topology-wide ---
  microsvc::ServiceTimeDist dist = microsvc::ServiceTimeDist::kExponential;
  /// Applied to every RPC edge when set (per-hop policies win).
  std::optional<microsvc::RpcPolicy> default_rpc;
  /// Policy for the gateway->backend edge only (hop 1, the call INTO the
  /// first backend of every chain endpoint). Unset = default_rpc. The
  /// defended preset retries here and nowhere else: the gateway pool is too
  /// large to pin, so it can afford to wait out a burst, while interior
  /// edges fail fast and free their caller's slot immediately.
  std::optional<microsvc::RpcPolicy> edge_rpc;
  /// Policy for hop 0 — how long the external client waits before
  /// abandoning a request. Unset = default_rpc. The defended preset pins
  /// this to the endpoint deadline so the user outlasts the gateway's
  /// retry span instead of hanging up mid-recovery.
  std::optional<microsvc::RpcPolicy> client_rpc;

  // --- admission, backend services only ---
  /// Bounds each backend's arrival queue at `max_queue_per_replica *
  /// replicas` waiters (load shedding). 0 = unbounded.
  std::int32_t max_queue_per_replica = 0;
  /// Per-caller circuit breaker: this many consecutive failures from one
  /// caller open it for `breaker_cooldown`. 0 = disabled.
  std::int32_t breaker_threshold = 0;
  SimDuration breaker_cooldown = Ms(500);

  // --- graceful degradation (anti-Grunt countermeasures), backends only ---
  /// Per-downstream bulkhead quota (x replicas). 0 = none.
  std::int32_t bulkhead_per_downstream = 0;
  microsvc::AdaptiveLimitSpec adaptive_limit;
  microsvc::DeadlineShedSpec deadline_shed;
  /// End-to-end deadline stamped onto every dynamic endpoint (what
  /// deadline_shed budgets against). 0 = none.
  SimDuration endpoint_deadline = 0;

  // --- workload ---
  /// Closed-loop population; 0 keeps the scenario's reference default
  /// (SocialNetwork 7000, HotelReservation 5000, µBench 4000).
  std::int32_t users = 0;
};

/// Scales a mean demand in milliseconds by a cloud capacity factor (faster
/// cloud → shorter demand), mirroring the original per-app `D()` helpers.
SimDuration ScaledDemand(double ms, double capacity_scale);

class SpecBuilder {
 public:
  /// Stamps `deploy` onto everything built from here on (see
  /// DeploymentParams for what lands where).
  explicit SpecBuilder(std::string name, const DeploymentParams& deploy = {});

  SpecBuilder& SetNetLatency(SimDuration lat);

  /// Adds a service; `max_replicas` 0 means `replicas * 8` (the app idiom).
  /// Returns the service name (specs reference services by name).
  const std::string& AddService(std::string name, std::int32_t threads,
                                std::int32_t cores, std::int32_t replicas,
                                std::int32_t max_replicas = 0);

  /// Adds a sequential-chain endpoint: each call becomes its own stage.
  void AddChainEndpoint(std::string name, std::vector<CallSpec> calls,
                        double heavy_multiplier, std::int64_t request_bytes,
                        std::int64_t response_bytes);

  /// Adds an endpoint with explicit (possibly fan-out) stages.
  void AddStagedEndpoint(std::string name, std::vector<StageSpec> stages,
                         double heavy_multiplier, std::int64_t request_bytes,
                         std::int64_t response_bytes);

  /// Adds a static edge-served endpoint (no backend stages).
  void AddStaticEndpoint(std::string name, std::int64_t request_bytes,
                         std::int64_t response_bytes);

  std::size_t service_count() const { return spec_.services.size(); }
  std::size_t endpoint_count() const { return spec_.endpoints.size(); }

  TopologySpec Build() &&;

 private:
  TopologySpec spec_;
  DeploymentParams deploy_;
};

}  // namespace grunt::scenario
