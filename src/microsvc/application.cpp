#include "microsvc/application.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace grunt::microsvc {

const char* ToString(RequestClass c) {
  switch (c) {
    case RequestClass::kLegit: return "legit";
    case RequestClass::kAttack: return "attack";
    case RequestClass::kProbe: return "probe";
  }
  return "?";
}

const char* ToString(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kRejected: return "rejected";
    case Outcome::kDeadlineExceeded: return "deadline";
    case Outcome::kFailed: return "failed";
  }
  return "?";
}

namespace {

void ValidatePolicy(const RpcPolicy& p, const std::string& where) {
  if (p.timeout < 0) throw std::invalid_argument("negative timeout: " + where);
  if (p.max_retries < 0) {
    throw std::invalid_argument("negative max_retries: " + where);
  }
  if (p.backoff_base < 0) {
    throw std::invalid_argument("negative backoff_base: " + where);
  }
  if (p.backoff_multiplier < 1.0) {
    throw std::invalid_argument("backoff_multiplier < 1: " + where);
  }
  if (p.jitter < 0.0 || p.jitter >= 1.0) {
    throw std::invalid_argument("jitter outside [0,1): " + where);
  }
  if (p.nominal_rtt < 0) {
    throw std::invalid_argument("negative nominal_rtt: " + where);
  }
}

void ValidateDegradation(const ServiceSpec& s) {
  if (s.bulkhead_per_downstream < 0) {
    throw std::invalid_argument("negative bulkhead_per_downstream: " + s.name);
  }
  const AdaptiveLimitSpec& al = s.adaptive_limit;
  if (al.min_limit < 1) {
    throw std::invalid_argument("adaptive_limit min_limit < 1: " + s.name);
  }
  if (al.max_limit < al.min_limit) {
    throw std::invalid_argument("adaptive_limit max_limit < min_limit: " +
                                s.name);
  }
  if (al.rtt_tolerance < 1.0) {
    throw std::invalid_argument("adaptive_limit rtt_tolerance < 1: " + s.name);
  }
  if (al.decrease_factor <= 0.0 || al.decrease_factor > 1.0) {
    throw std::invalid_argument(
        "adaptive_limit decrease_factor outside (0,1]: " + s.name);
  }
  const DeadlineShedSpec& ds = s.deadline_shed;
  if (ds.margin <= 0.0) {
    throw std::invalid_argument("deadline_shed margin <= 0: " + s.name);
  }
  if (ds.depth_weight < 0.0) {
    throw std::invalid_argument("deadline_shed depth_weight < 0: " + s.name);
  }
}

}  // namespace

ServiceId Application::Builder::AddService(ServiceSpec spec) {
  app_.services_.push_back(std::move(spec));
  return static_cast<ServiceId>(app_.services_.size() - 1);
}

RequestTypeId Application::Builder::AddRequestType(RequestTypeSpec spec) {
  app_.types_.push_back(std::move(spec));
  return static_cast<RequestTypeId>(app_.types_.size() - 1);
}

Application::Builder& Application::Builder::SetName(std::string name) {
  app_.name_ = std::move(name);
  return *this;
}

Application::Builder& Application::Builder::SetNetLatency(SimDuration lat) {
  if (lat < 0) throw std::invalid_argument("net latency < 0");
  app_.net_latency_ = lat;
  return *this;
}

Application::Builder& Application::Builder::SetServiceTimeDist(
    ServiceTimeDist dist) {
  app_.dist_ = dist;
  return *this;
}

Application::Builder& Application::Builder::SetDefaultRpcPolicy(
    RpcPolicy policy) {
  app_.default_rpc_ = policy;
  return *this;
}

Application Application::Builder::Build() && {
  std::unordered_set<std::string> svc_names;
  for (const auto& s : app_.services_) {
    if (s.name.empty()) throw std::invalid_argument("service with empty name");
    if (!svc_names.insert(s.name).second) {
      throw std::invalid_argument("duplicate service name: " + s.name);
    }
    if (s.threads_per_replica <= 0 || s.cores_per_replica <= 0 ||
        s.initial_replicas <= 0 || s.max_replicas < s.initial_replicas) {
      throw std::invalid_argument("invalid service sizing: " + s.name);
    }
    if (s.max_queue_per_replica < 0 || s.breaker_threshold < 0 ||
        s.breaker_cooldown < 0) {
      throw std::invalid_argument("invalid admission config: " + s.name);
    }
    ValidateDegradation(s);
  }
  ValidatePolicy(app_.default_rpc_, "default_rpc");
  std::unordered_set<std::string> type_names;
  for (const auto& t : app_.types_) {
    if (t.name.empty()) throw std::invalid_argument("type with empty name");
    if (!type_names.insert(t.name).second) {
      throw std::invalid_argument("duplicate request type name: " + t.name);
    }
    if (!t.is_static && t.hops.empty()) {
      throw std::invalid_argument("dynamic type with empty path: " + t.name);
    }
    std::unordered_set<ServiceId> seen;
    for (const auto& h : t.hops) {
      if (h.service < 0 ||
          static_cast<std::size_t>(h.service) >= app_.services_.size()) {
        throw std::invalid_argument("dangling service ref in type: " + t.name);
      }
      if (h.cpu_demand < 0 || h.post_demand < 0) {
        throw std::invalid_argument("negative demand in type: " + t.name);
      }
      if (!seen.insert(h.service).second) {
        throw std::invalid_argument("path visits a service twice: " + t.name);
      }
      if (h.rpc) ValidatePolicy(*h.rpc, t.name);
    }
    if (t.deadline < 0) {
      throw std::invalid_argument("negative deadline in type: " + t.name);
    }
    if (t.heavy_multiplier < 1.0) {
      throw std::invalid_argument("heavy_multiplier < 1 in type: " + t.name);
    }
  }
  for (std::size_t i = 0; i < app_.services_.size(); ++i) {
    app_.service_index_.emplace(app_.services_[i].name,
                                static_cast<ServiceId>(i));
  }
  for (std::size_t i = 0; i < app_.types_.size(); ++i) {
    app_.type_index_.emplace(app_.types_[i].name,
                             static_cast<RequestTypeId>(i));
  }
  return std::move(app_);
}

std::optional<ServiceId> Application::FindService(std::string_view name) const {
  const auto it = service_index_.find(name);
  if (it == service_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<RequestTypeId> Application::FindRequestType(
    std::string_view name) const {
  const auto it = type_index_.find(name);
  if (it == type_index_.end()) return std::nullopt;
  return it->second;
}

bool StructurallyEqual(const Application& a, const Application& b) {
  return a.name() == b.name() && a.net_latency() == b.net_latency() &&
         a.service_time_dist() == b.service_time_dist() &&
         a.default_rpc() == b.default_rpc() &&
         a.services() == b.services() &&
         a.request_types() == b.request_types();
}

std::vector<RequestTypeId> Application::PublicDynamicTypes() const {
  std::vector<RequestTypeId> out;
  for (std::size_t i = 0; i < types_.size(); ++i) {
    if (!types_[i].is_static) out.push_back(static_cast<RequestTypeId>(i));
  }
  return out;
}

std::vector<ServiceId> Application::PathServices(RequestTypeId t) const {
  std::vector<ServiceId> out;
  for (const auto& h : request_type(t).hops) out.push_back(h.service);
  return out;
}

std::vector<ServiceId> Application::SharedServices(RequestTypeId a,
                                                   RequestTypeId b) const {
  std::vector<ServiceId> out;
  const auto pb = PathServices(b);
  for (ServiceId s : PathServices(a)) {
    if (std::find(pb.begin(), pb.end(), s) != pb.end()) out.push_back(s);
  }
  return out;
}

std::optional<std::size_t> Application::HopIndexOf(RequestTypeId t,
                                                   ServiceId s) const {
  const auto& hops = request_type(t).hops;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (hops[i].service == s) return i;
  }
  return std::nullopt;
}

bool Application::IsUpstreamOn(RequestTypeId t, ServiceId up,
                               ServiceId down) const {
  const auto iu = HopIndexOf(t, up);
  const auto id = HopIndexOf(t, down);
  return iu && id && *iu < *id;
}

}  // namespace grunt::microsvc
