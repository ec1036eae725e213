#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "microsvc/types.h"

namespace grunt::microsvc {

/// Static description of a microservice application: its services and the
/// request types (execution paths) it supports. Immutable once built; the
/// runtime `Cluster` instantiates it into a simulation.
class Application {
 public:
  /// Incrementally builds an Application; `Build()` validates the topology.
  /// Defined out-of-line below (it holds an Application by value).
  class Builder;

  const std::string& name() const { return name_; }
  SimDuration net_latency() const { return net_latency_; }
  ServiceTimeDist service_time_dist() const { return dist_; }
  /// Application-wide RPC policy for hops that don't set their own.
  /// Defaults to "no timeout, no retry".
  const RpcPolicy& default_rpc() const { return default_rpc_; }
  /// Policy governing calls into hop `h` of one of this application's
  /// request types (the hop's own policy or the application default).
  /// Inline: Cluster consults it on every hop issue/completion, so the
  /// lookup must fold into the caller.
  const RpcPolicy& rpc_policy(const Hop& h) const {
    return h.rpc ? *h.rpc : default_rpc_;
  }

  std::size_t service_count() const { return services_.size(); }
  std::size_t request_type_count() const { return types_.size(); }
  const ServiceSpec& service(ServiceId id) const {
    return services_[static_cast<std::size_t>(id)];
  }
  const RequestTypeSpec& request_type(RequestTypeId id) const {
    return types_[static_cast<std::size_t>(id)];
  }
  const std::vector<ServiceSpec>& services() const { return services_; }
  const std::vector<RequestTypeSpec>& request_types() const { return types_; }

  std::optional<ServiceId> FindService(std::string_view name) const;
  std::optional<RequestTypeId> FindRequestType(std::string_view name) const;

  /// Ids of non-static request types — the paths a blackbox profiler can
  /// discover by crawling public URLs.
  std::vector<RequestTypeId> PublicDynamicTypes() const;

  /// The ordered services on a type's critical path.
  std::vector<ServiceId> PathServices(RequestTypeId t) const;

  /// Services present on both paths, in path-a order.
  std::vector<ServiceId> SharedServices(RequestTypeId a, RequestTypeId b) const;

  /// Position (hop index) of `s` on path `t`, or nullopt.
  std::optional<std::size_t> HopIndexOf(RequestTypeId t, ServiceId s) const;

  /// True if `up` appears strictly before `down` on path `t`.
  bool IsUpstreamOn(RequestTypeId t, ServiceId up, ServiceId down) const;

 private:
  friend class Builder;

  /// Heterogeneous string hashing so FindService/FindRequestType accept
  /// string_view without materializing a std::string per lookup.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using NameIndex =
      std::unordered_map<std::string, std::int32_t, NameHash, std::equal_to<>>;

  std::string name_ = "app";
  SimDuration net_latency_ = 500;  // 0.5 ms per RPC message
  ServiceTimeDist dist_ = ServiceTimeDist::kExponential;
  RpcPolicy default_rpc_;
  std::vector<ServiceSpec> services_;
  std::vector<RequestTypeSpec> types_;
  // Name → id indices, built once in Builder::Build() (a workload mix
  // names its endpoints, and programs look services up by name).
  NameIndex service_index_;
  NameIndex type_index_;
};

/// True when the two applications describe the same static topology:
/// identical name, network latency, service-time distribution, default RPC
/// policy, service list and request-type list (field-by-field, in order).
/// This is the "golden equivalence" check between spec-built and
/// legacy-built applications.
bool StructurallyEqual(const Application& a, const Application& b);

class Application::Builder {
 public:
  /// Adds a service and returns its id.
  ServiceId AddService(ServiceSpec spec);
  /// Adds a request type and returns its id. Hops must reference existing
  /// services; validation happens in Build().
  RequestTypeId AddRequestType(RequestTypeSpec spec);
  Builder& SetName(std::string name);
  Builder& SetNetLatency(SimDuration lat);
  Builder& SetServiceTimeDist(ServiceTimeDist dist);
  /// Sets the application-wide default RPC policy (per-hop policies on the
  /// request types override it).
  Builder& SetDefaultRpcPolicy(RpcPolicy policy);

  /// Validates and returns the application. Throws std::invalid_argument on
  /// dangling service references, empty paths, or duplicate names.
  Application Build() &&;

 private:
  Application app_;
};

}  // namespace grunt::microsvc
