#include "scenario/loader.h"

#include <stdexcept>

namespace grunt::scenario {

microsvc::Application BuildApplication(const TopologySpec& spec) {
  microsvc::Application::Builder b;
  b.SetName(spec.name)
      .SetNetLatency(spec.net_latency)
      .SetServiceTimeDist(spec.dist);
  if (spec.default_rpc) b.SetDefaultRpcPolicy(*spec.default_rpc);
  for (const auto& svc : spec.services) b.AddService(svc);
  for (const auto& type : spec.endpoints) b.AddRequestType(type);
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
  spec.endpoints = app.request_types();
  return spec;
}

}  // namespace grunt::scenario
