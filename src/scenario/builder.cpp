#include "scenario/builder.h"

#include <algorithm>
#include <utility>

namespace grunt::scenario {

SimDuration ScaledDemand(double ms, double capacity_scale) {
  return std::max<SimDuration>(
      1, static_cast<SimDuration>(ms * 1000.0 / capacity_scale));
}

SpecBuilder::SpecBuilder(std::string name, const DeploymentParams& deploy)
    : deploy_(deploy) {
  spec_.name = std::move(name);
  spec_.dist = deploy.dist;
  spec_.default_rpc = deploy.default_rpc;
}

SpecBuilder& SpecBuilder::SetNetLatency(SimDuration lat) {
  spec_.net_latency = lat;
  return *this;
}

microsvc::ServiceId SpecBuilder::AddService(std::string name,
                                            std::int32_t threads,
                                            std::int32_t cores,
                                            std::int32_t replicas,
                                            std::int32_t max_replicas) {
  microsvc::ServiceSpec svc;
  svc.name = std::move(name);
  svc.threads_per_replica = threads;
  svc.cores_per_replica = cores;
  svc.initial_replicas = replicas;
  svc.max_replicas = max_replicas > 0 ? max_replicas : replicas * 8;
  if (threads < kGatewayThreads) {  // backends only; gateways never shed
    svc.max_queue_per_replica = deploy_.max_queue_per_replica;
    svc.breaker_threshold = deploy_.breaker_threshold;
    svc.breaker_cooldown = deploy_.breaker_cooldown;
    svc.bulkhead_per_downstream = deploy_.bulkhead_per_downstream;
    svc.adaptive_limit = deploy_.adaptive_limit;
    svc.deadline_shed = deploy_.deadline_shed;
  }
  spec_.services.push_back(std::move(svc));
  return static_cast<microsvc::ServiceId>(spec_.services.size() - 1);
}

void SpecBuilder::AddChainEndpoint(std::string name,
                                   std::vector<microsvc::Hop> hops,
                                   double heavy_multiplier,
                                   std::int64_t request_bytes,
                                   std::int64_t response_bytes) {
  if (deploy_.client_rpc && !hops.empty()) hops[0].rpc = deploy_.client_rpc;
  if (deploy_.edge_rpc && hops.size() > 1) hops[1].rpc = deploy_.edge_rpc;
  microsvc::RequestTypeSpec ep;
  ep.name = std::move(name);
  ep.hops = std::move(hops);
  ep.heavy_multiplier = heavy_multiplier;
  ep.request_bytes = request_bytes;
  ep.response_bytes = response_bytes;
  ep.deadline = deploy_.endpoint_deadline;
  spec_.endpoints.push_back(std::move(ep));
}

void SpecBuilder::AddStaticEndpoint(std::string name,
                                    std::int64_t request_bytes,
                                    std::int64_t response_bytes) {
  microsvc::RequestTypeSpec ep;
  ep.name = std::move(name);
  ep.is_static = true;
  ep.request_bytes = request_bytes;
  ep.response_bytes = response_bytes;
  spec_.endpoints.push_back(std::move(ep));
}

TopologySpec SpecBuilder::Build() && { return std::move(spec_); }

}  // namespace grunt::scenario
