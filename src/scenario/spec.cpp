#include "scenario/spec.h"

#include <fstream>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "util/json.h"

namespace grunt::scenario {

namespace {

using json::Value;

// ---------------------------------------------------------------- helpers --

/// Rejects unknown keys: a typo in a hand-written spec must fail loudly.
void CheckKeys(const Value& obj, std::initializer_list<std::string_view> allowed,
               const std::string& where) {
  for (const auto& [key, value] : obj.AsObject()) {
    bool known = false;
    for (std::string_view a : allowed) known = known || key == a;
    if (!known) {
      throw std::invalid_argument("unknown key \"" + key + "\" in " + where);
    }
  }
}

SimDuration GetDuration(const Value& obj, std::string_view key,
                        SimDuration fallback) {
  const Value* v = obj.Find(key);
  return v ? static_cast<SimDuration>(v->AsInt64()) : fallback;
}

double GetDouble(const Value& obj, std::string_view key, double fallback) {
  const Value* v = obj.Find(key);
  return v ? v->AsDouble() : fallback;
}

std::int64_t GetInt(const Value& obj, std::string_view key,
                    std::int64_t fallback) {
  const Value* v = obj.Find(key);
  return v ? v->AsInt64() : fallback;
}

std::int32_t GetInt32(const Value& obj, std::string_view key,
                      std::int32_t fallback) {
  const std::int64_t v = GetInt(obj, key, fallback);
  if (v < std::numeric_limits<std::int32_t>::min() ||
      v > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument("\"" + std::string(key) + "\": " +
                                std::to_string(v) + " is out of int32 range");
  }
  return static_cast<std::int32_t>(v);
}

bool GetBool(const Value& obj, std::string_view key, bool fallback) {
  const Value* v = obj.Find(key);
  return v ? v->AsBool() : fallback;
}

std::string GetString(const Value& obj, std::string_view key,
                      const std::string& fallback) {
  const Value* v = obj.Find(key);
  return v ? v->AsString() : fallback;
}

// ------------------------------------------------------------- rpc policy --

Value RpcToJson(const microsvc::RpcPolicy& p) {
  Value v;
  v.Set("timeout_us", Value(p.timeout));
  v.Set("max_retries", Value(p.max_retries));
  v.Set("backoff_base_us", Value(p.backoff_base));
  v.Set("backoff_multiplier", Value(p.backoff_multiplier));
  v.Set("jitter", Value(p.jitter));
  // Conditional so pre-existing spec files stay byte-identical.
  if (p.nominal_rtt != 0) v.Set("nominal_rtt_us", Value(p.nominal_rtt));
  return v;
}

microsvc::RpcPolicy RpcFromJson(const Value& v, const std::string& where) {
  CheckKeys(v,
            {"timeout_us", "max_retries", "backoff_base_us",
             "backoff_multiplier", "jitter", "nominal_rtt_us"},
            where);
  microsvc::RpcPolicy p;
  p.timeout = GetDuration(v, "timeout_us", p.timeout);
  p.max_retries = GetInt32(v, "max_retries", p.max_retries);
  p.backoff_base = GetDuration(v, "backoff_base_us", p.backoff_base);
  p.backoff_multiplier = GetDouble(v, "backoff_multiplier",
                                   p.backoff_multiplier);
  p.jitter = GetDouble(v, "jitter", p.jitter);
  p.nominal_rtt = GetDuration(v, "nominal_rtt_us", p.nominal_rtt);
  return p;
}

// --------------------------------------------------------------- services --

Value ServiceToJson(const microsvc::ServiceSpec& s) {
  const microsvc::ServiceSpec defaults;
  Value v;
  v.Set("name", Value(s.name));
  v.Set("threads_per_replica", Value(s.threads_per_replica));
  v.Set("cores_per_replica", Value(s.cores_per_replica));
  v.Set("initial_replicas", Value(s.initial_replicas));
  v.Set("max_replicas", Value(s.max_replicas));
  if (s.max_queue_per_replica != defaults.max_queue_per_replica) {
    v.Set("max_queue_per_replica", Value(s.max_queue_per_replica));
  }
  if (s.breaker_threshold != defaults.breaker_threshold) {
    v.Set("breaker_threshold", Value(s.breaker_threshold));
  }
  if (s.breaker_cooldown != defaults.breaker_cooldown) {
    v.Set("breaker_cooldown_us", Value(s.breaker_cooldown));
  }
  if (s.bulkhead_per_downstream != defaults.bulkhead_per_downstream) {
    v.Set("bulkhead_per_downstream", Value(s.bulkhead_per_downstream));
  }
  if (s.adaptive_limit != defaults.adaptive_limit) {
    const microsvc::AdaptiveLimitSpec al_defaults;
    Value al;
    al.Set("enabled", Value(s.adaptive_limit.enabled));
    if (s.adaptive_limit.min_limit != al_defaults.min_limit) {
      al.Set("min_limit", Value(s.adaptive_limit.min_limit));
    }
    if (s.adaptive_limit.max_limit != al_defaults.max_limit) {
      al.Set("max_limit", Value(s.adaptive_limit.max_limit));
    }
    if (s.adaptive_limit.rtt_tolerance != al_defaults.rtt_tolerance) {
      al.Set("rtt_tolerance", Value(s.adaptive_limit.rtt_tolerance));
    }
    if (s.adaptive_limit.decrease_factor != al_defaults.decrease_factor) {
      al.Set("decrease_factor", Value(s.adaptive_limit.decrease_factor));
    }
    v.Set("adaptive_limit", std::move(al));
  }
  if (s.deadline_shed != defaults.deadline_shed) {
    const microsvc::DeadlineShedSpec ds_defaults;
    Value ds;
    ds.Set("enabled", Value(s.deadline_shed.enabled));
    if (s.deadline_shed.margin != ds_defaults.margin) {
      ds.Set("margin", Value(s.deadline_shed.margin));
    }
    if (s.deadline_shed.depth_weight != ds_defaults.depth_weight) {
      ds.Set("depth_weight", Value(s.deadline_shed.depth_weight));
    }
    v.Set("deadline_shed", std::move(ds));
  }
  return v;
}

microsvc::ServiceSpec ServiceFromJson(const Value& v) {
  const std::string name = GetString(v, "name", "");
  const std::string where = "service \"" + name + "\"";
  CheckKeys(v,
            {"name", "threads_per_replica", "cores_per_replica",
             "initial_replicas", "max_replicas", "max_queue_per_replica",
             "breaker_threshold", "breaker_cooldown_us",
             "bulkhead_per_downstream", "adaptive_limit", "deadline_shed"},
            where);
  microsvc::ServiceSpec s;
  s.name = name;
  s.threads_per_replica =
      GetInt32(v, "threads_per_replica", s.threads_per_replica);
  s.cores_per_replica = GetInt32(v, "cores_per_replica", s.cores_per_replica);
  s.initial_replicas = GetInt32(v, "initial_replicas", s.initial_replicas);
  s.max_replicas = GetInt32(v, "max_replicas", s.max_replicas);
  s.max_queue_per_replica =
      GetInt32(v, "max_queue_per_replica", s.max_queue_per_replica);
  s.breaker_threshold = GetInt32(v, "breaker_threshold", s.breaker_threshold);
  s.breaker_cooldown = GetDuration(v, "breaker_cooldown_us",
                                   s.breaker_cooldown);
  s.bulkhead_per_downstream =
      GetInt32(v, "bulkhead_per_downstream", s.bulkhead_per_downstream);
  if (const Value* al = v.Find("adaptive_limit")) {
    CheckKeys(*al,
              {"enabled", "min_limit", "max_limit", "rtt_tolerance",
               "decrease_factor"},
              where + " adaptive_limit");
    s.adaptive_limit.enabled =
        GetBool(*al, "enabled", s.adaptive_limit.enabled);
    s.adaptive_limit.min_limit =
        GetInt32(*al, "min_limit", s.adaptive_limit.min_limit);
    s.adaptive_limit.max_limit =
        GetInt32(*al, "max_limit", s.adaptive_limit.max_limit);
    s.adaptive_limit.rtt_tolerance =
        GetDouble(*al, "rtt_tolerance", s.adaptive_limit.rtt_tolerance);
    s.adaptive_limit.decrease_factor =
        GetDouble(*al, "decrease_factor", s.adaptive_limit.decrease_factor);
  }
  if (const Value* ds = v.Find("deadline_shed")) {
    CheckKeys(*ds, {"enabled", "margin", "depth_weight"},
              where + " deadline_shed");
    s.deadline_shed.enabled = GetBool(*ds, "enabled", s.deadline_shed.enabled);
    s.deadline_shed.margin = GetDouble(*ds, "margin", s.deadline_shed.margin);
    s.deadline_shed.depth_weight =
        GetDouble(*ds, "depth_weight", s.deadline_shed.depth_weight);
  }
  return s;
}

// -------------------------------------------------------------- endpoints --

Value CallToJson(const CallSpec& c) {
  Value v;
  v.Set("service", Value(c.service));
  v.Set("cpu_demand_us", Value(c.cpu_demand));
  if (c.post_demand != 0) v.Set("post_demand_us", Value(c.post_demand));
  if (c.rpc) v.Set("rpc", RpcToJson(*c.rpc));
  return v;
}

CallSpec CallFromJson(const Value& v, const std::string& where) {
  CheckKeys(v, {"service", "cpu_demand_us", "post_demand_us", "rpc"}, where);
  CallSpec c;
  c.service = v.At("service").AsString();
  c.cpu_demand = GetDuration(v, "cpu_demand_us", 0);
  c.post_demand = GetDuration(v, "post_demand_us", 0);
  if (const Value* rpc = v.Find("rpc")) {
    c.rpc = RpcFromJson(*rpc, where + " rpc");
  }
  return c;
}

/// A single-call stage dumps as the call object itself; a fan-out stage
/// dumps as {"parallel": [call, ...]}.
Value StageToJson(const StageSpec& stage) {
  if (stage.calls.size() == 1) return CallToJson(stage.calls[0]);
  json::Array calls;
  for (const auto& c : stage.calls) calls.push_back(CallToJson(c));
  Value v;
  v.Set("parallel", Value(std::move(calls)));
  return v;
}

StageSpec StageFromJson(const Value& v, const std::string& where) {
  StageSpec stage;
  if (const Value* par = v.Find("parallel")) {
    CheckKeys(v, {"parallel"}, where);
    for (const Value& c : par->AsArray()) {
      stage.calls.push_back(CallFromJson(c, where));
    }
    if (stage.calls.empty()) {
      throw std::invalid_argument("empty parallel stage in " + where);
    }
  } else {
    stage.calls.push_back(CallFromJson(v, where));
  }
  return stage;
}

Value EndpointToJson(const EndpointSpec& e) {
  Value v;
  v.Set("name", Value(e.name));
  if (e.is_static) v.Set("static", Value(true));
  if (e.heavy_multiplier != 1.0) {
    v.Set("heavy_multiplier", Value(e.heavy_multiplier));
  }
  v.Set("request_bytes", Value(e.request_bytes));
  v.Set("response_bytes", Value(e.response_bytes));
  if (e.deadline != 0) v.Set("deadline_us", Value(e.deadline));
  if (!e.stages.empty()) {
    json::Array stages;
    for (const auto& s : e.stages) stages.push_back(StageToJson(s));
    v.Set("stages", Value(std::move(stages)));
  }
  return v;
}

EndpointSpec EndpointFromJson(const Value& v) {
  EndpointSpec e;
  e.name = GetString(v, "name", "");
  const std::string where = "endpoint \"" + e.name + "\"";
  CheckKeys(v,
            {"name", "static", "heavy_multiplier", "request_bytes",
             "response_bytes", "deadline_us", "stages"},
            where);
  e.is_static = GetBool(v, "static", false);
  e.heavy_multiplier = GetDouble(v, "heavy_multiplier", 1.0);
  e.request_bytes = GetInt(v, "request_bytes", e.request_bytes);
  e.response_bytes = GetInt(v, "response_bytes", e.response_bytes);
  e.deadline = GetDuration(v, "deadline_us", 0);
  if (const Value* stages = v.Find("stages")) {
    for (const Value& s : stages->AsArray()) {
      e.stages.push_back(StageFromJson(s, where));
    }
  }
  return e;
}

// --------------------------------------------------------------- topology --

const char* DistName(microsvc::ServiceTimeDist d) {
  return d == microsvc::ServiceTimeDist::kDeterministic ? "deterministic"
                                                        : "exponential";
}

microsvc::ServiceTimeDist DistFromName(const std::string& s) {
  if (s == "deterministic") return microsvc::ServiceTimeDist::kDeterministic;
  if (s == "exponential") return microsvc::ServiceTimeDist::kExponential;
  throw std::invalid_argument("unknown service_time_dist: \"" + s + "\"");
}

Value TopologyToJson(const TopologySpec& t) {
  Value v;
  v.Set("name", Value(t.name));
  v.Set("net_latency_us", Value(t.net_latency));
  v.Set("service_time_dist", Value(DistName(t.dist)));
  if (t.default_rpc) v.Set("default_rpc", RpcToJson(*t.default_rpc));
  json::Array services;
  for (const auto& s : t.services) services.push_back(ServiceToJson(s));
  v.Set("services", Value(std::move(services)));
  json::Array endpoints;
  for (const auto& e : t.endpoints) endpoints.push_back(EndpointToJson(e));
  v.Set("endpoints", Value(std::move(endpoints)));
  return v;
}

TopologySpec TopologyFromJson(const Value& v) {
  CheckKeys(v,
            {"name", "net_latency_us", "service_time_dist", "default_rpc",
             "services", "endpoints"},
            "topology");
  TopologySpec t;
  t.name = GetString(v, "name", t.name);
  t.net_latency = GetDuration(v, "net_latency_us", t.net_latency);
  if (const Value* dist = v.Find("service_time_dist")) {
    t.dist = DistFromName(dist->AsString());
  }
  if (const Value* rpc = v.Find("default_rpc")) {
    t.default_rpc = RpcFromJson(*rpc, "topology default_rpc");
  }
  for (const Value& s : v.At("services").AsArray()) {
    t.services.push_back(ServiceFromJson(s));
  }
  for (const Value& e : v.At("endpoints").AsArray()) {
    t.endpoints.push_back(EndpointFromJson(e));
  }
  return t;
}

// --------------------------------------------------------------- workload --

Value WorkloadToJson(const WorkloadSpec& w) {
  Value v;
  if (w.kind == WorkloadSpec::Kind::kClosedLoop) {
    v.Set("kind", Value("closed"));
    v.Set("users", Value(w.users));
    v.Set("think_mean_us", Value(w.think_mean));
  } else {
    v.Set("kind", Value("open"));
    v.Set("rate", Value(w.rate));
  }
  if (!w.mix.empty()) {
    json::Array mix;
    for (const auto& m : w.mix) {
      Value entry;
      entry.Set("endpoint", Value(m.endpoint));
      entry.Set("weight", Value(m.weight));
      mix.push_back(std::move(entry));
    }
    v.Set("mix", Value(std::move(mix)));
  }
  return v;
}

WorkloadSpec WorkloadFromJson(const Value& v) {
  CheckKeys(v, {"kind", "users", "think_mean_us", "rate", "mix"}, "workload");
  WorkloadSpec w;
  const std::string kind = GetString(v, "kind", "closed");
  if (kind == "closed") {
    w.kind = WorkloadSpec::Kind::kClosedLoop;
  } else if (kind == "open") {
    w.kind = WorkloadSpec::Kind::kOpenLoop;
  } else {
    throw std::invalid_argument("unknown workload kind: \"" + kind + "\"");
  }
  w.users = GetInt32(v, "users", w.users);
  w.think_mean = GetDuration(v, "think_mean_us", w.think_mean);
  w.rate = GetDouble(v, "rate", w.rate);
  if (const Value* mix = v.Find("mix")) {
    for (const Value& entry : mix->AsArray()) {
      CheckKeys(entry, {"endpoint", "weight"}, "workload mix entry");
      MixEntrySpec m;
      m.endpoint = entry.At("endpoint").AsString();
      m.weight = GetDouble(entry, "weight", 1.0);
      w.mix.push_back(std::move(m));
    }
  }
  return w;
}

// -------------------------------------------------------------- operators --

Value OperatorsToJson(const OperatorSpec& o) {
  Value v;
  Value scaler;
  scaler.Set("enabled", Value(o.autoscaler_enabled));
  scaler.Set("provision_delay_us", Value(o.autoscaler.provision_delay));
  v.Set("autoscaler", std::move(scaler));
  Value ids;
  ids.Set("enabled", Value(o.ids_enabled));
  v.Set("ids", std::move(ids));
  return v;
}

OperatorSpec OperatorsFromJson(const Value& v) {
  CheckKeys(v, {"autoscaler", "ids"}, "operators");
  OperatorSpec o;
  if (const Value* scaler = v.Find("autoscaler")) {
    CheckKeys(*scaler, {"enabled", "provision_delay_us"},
              "operators autoscaler");
    o.autoscaler_enabled = GetBool(*scaler, "enabled", o.autoscaler_enabled);
    o.autoscaler.provision_delay =
        GetDuration(*scaler, "provision_delay_us",
                    o.autoscaler.provision_delay);
  }
  if (const Value* ids = v.Find("ids")) {
    CheckKeys(*ids, {"enabled"}, "operators ids");
    o.ids_enabled = GetBool(*ids, "enabled", o.ids_enabled);
  }
  return o;
}

ScenarioSpec ScenarioFromJson(const Value& v) {
  CheckKeys(v,
            {"grunt_scenario", "name", "description", "topology", "workload",
             "operators"},
            "scenario");
  if (GetInt(v, "grunt_scenario", 1) != 1) {
    throw std::invalid_argument("unsupported grunt_scenario version");
  }
  ScenarioSpec spec;
  spec.name = GetString(v, "name", "");
  spec.description = GetString(v, "description", "");
  spec.topology = TopologyFromJson(v.At("topology"));
  if (spec.name.empty()) spec.name = spec.topology.name;
  if (const Value* w = v.Find("workload")) {
    spec.workload = WorkloadFromJson(*w);
  }
  if (const Value* o = v.Find("operators")) {
    spec.operators = OperatorsFromJson(*o);
  }
  return spec;
}

}  // namespace

// ---------------------------------------------------------- entry points --

std::string DumpScenario(const ScenarioSpec& spec) {
  Value v;
  v.Set("grunt_scenario", Value(1));
  v.Set("name", Value(spec.name));
  if (!spec.description.empty()) {
    v.Set("description", Value(spec.description));
  }
  v.Set("topology", TopologyToJson(spec.topology));
  v.Set("workload", WorkloadToJson(spec.workload));
  v.Set("operators", OperatorsToJson(spec.operators));
  return v.Dump();
}

std::string DumpTopology(const TopologySpec& spec) {
  return TopologyToJson(spec).Dump();
}

ScenarioSpec ParseScenario(const std::string& text) {
  return ScenarioFromJson(json::Parse(text));
}

TopologySpec ParseTopology(const std::string& text) {
  return TopologyFromJson(json::Parse(text));
}

ScenarioSpec LoadScenarioFile(const std::string& path) {
  const Value v = json::ParseFile(path);
  try {
    return ScenarioFromJson(v);
  } catch (const std::exception& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

void SaveScenarioFile(const std::string& path, const ScenarioSpec& spec) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << ScenarioFileText(spec);
  if (!out) throw json::Error("cannot write file: " + path);
}

std::string ScenarioFileText(const ScenarioSpec& spec) {
  return DumpScenario(spec) + "\n";
}

}  // namespace grunt::scenario
