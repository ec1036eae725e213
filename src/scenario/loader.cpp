#include "scenario/loader.h"

#include <stdexcept>
#include <unordered_map>

namespace grunt::scenario {

microsvc::Application BuildApplication(const TopologySpec& spec) {
  microsvc::Application::Builder b;
  b.SetName(spec.name)
      .SetNetLatency(spec.net_latency)
      .SetServiceTimeDist(spec.dist);
  if (spec.default_rpc) b.SetDefaultRpcPolicy(*spec.default_rpc);

  // Service ids are assigned in declaration order; a name → id map resolves
  // the endpoints' by-name references.
  std::unordered_map<std::string, microsvc::ServiceId> ids;
  for (const auto& svc : spec.services) {
    ids[svc.name] = b.AddService(svc);
  }

  for (const auto& ep : spec.endpoints) {
    microsvc::RequestTypeSpec type;
    type.name = ep.name;
    type.heavy_multiplier = ep.heavy_multiplier;
    type.request_bytes = ep.request_bytes;
    type.response_bytes = ep.response_bytes;
    type.is_static = ep.is_static;
    type.deadline = ep.deadline;
    for (const auto& stage : ep.stages) {
      for (const auto& call : stage.calls) {
        const auto it = ids.find(call.service);
        if (it == ids.end()) {
          throw std::invalid_argument("endpoint \"" + ep.name +
                                      "\" calls unknown service \"" +
                                      call.service + "\"");
        }
        microsvc::Hop hop;
        hop.service = it->second;
        hop.cpu_demand = call.cpu_demand;
        hop.post_demand = call.post_demand;
        hop.rpc = call.rpc;
        type.hops.push_back(hop);
      }
    }
    b.AddRequestType(std::move(type));
  }
  return std::move(b).Build();
}

workload::RequestMix BuildRequestMix(const microsvc::Application& app,
                                     const WorkloadSpec& spec) {
  if (spec.mix.empty()) {
    return workload::RequestMix::Uniform(app.PublicDynamicTypes());
  }
  workload::RequestMix mix;
  for (const auto& entry : spec.mix) {
    const auto id = app.FindRequestType(entry.endpoint);
    if (!id) {
      throw std::invalid_argument("workload mix references unknown endpoint "
                                  "\"" + entry.endpoint + "\"");
    }
    mix.types.push_back(*id);
    mix.weights.push_back(entry.weight);
  }
  mix.Validate();
  return mix;
}

workload::MarkovNavigator BuildNavigator(const microsvc::Application& app,
                                         const WorkloadSpec& spec) {
  const workload::RequestMix mix = BuildRequestMix(app, spec);
  // Memoryless chain whose stationary distribution equals the mix weights:
  // every row is the popularity vector.
  workload::MarkovNavigator nav;
  nav.types = mix.types;
  nav.transition.assign(mix.types.size(), mix.weights);
  return nav;
}

TopologySpec TopologyFromApplication(const microsvc::Application& app) {
  TopologySpec spec;
  spec.name = app.name();
  spec.net_latency = app.net_latency();
  spec.dist = app.service_time_dist();
  if (app.default_rpc() != microsvc::RpcPolicy{}) {
    spec.default_rpc = app.default_rpc();
  }
  spec.services = app.services();
  for (const auto& type : app.request_types()) {
    EndpointSpec ep;
    ep.name = type.name;
    ep.heavy_multiplier = type.heavy_multiplier;
    ep.request_bytes = type.request_bytes;
    ep.response_bytes = type.response_bytes;
    ep.is_static = type.is_static;
    ep.deadline = type.deadline;
    for (const auto& hop : type.hops) {
      CallSpec call;
      call.service = app.service(hop.service).name;
      call.cpu_demand = hop.cpu_demand;
      call.post_demand = hop.post_demand;
      call.rpc = hop.rpc;
      ep.stages.push_back(StageSpec{{call}});
    }
    spec.endpoints.push_back(std::move(ep));
  }
  return spec;
}

}  // namespace grunt::scenario
