#pragma once

// Shared miniature topologies used across the test suite. All are built with
// deterministic service times unless a test opts into exponential draws, so
// expected latencies can be asserted exactly.

#include <vector>

#include "microsvc/application.h"
#include "microsvc/cluster.h"
#include "sim/simulation.h"

namespace grunt::testing {

/// Every completion the cluster publishes from construction on, in
/// completion order: a completion-channel subscriber that leaves when the
/// log is destroyed, so declare it after the cluster it watches.
class CompletionLog {
 public:
  explicit CompletionLog(microsvc::Cluster& cluster)
      : bus_(cluster.telemetry()),
        sub_(bus_.completion().Subscribe(
            [this](const microsvc::CompletionRecord& rec) {
              records_.push_back(rec);
            })) {}
  ~CompletionLog() { bus_.completion().Unsubscribe(sub_); }
  CompletionLog(const CompletionLog&) = delete;
  CompletionLog& operator=(const CompletionLog&) = delete;

  const std::vector<microsvc::CompletionRecord>& records() const {
    return records_;
  }

 private:
  telemetry::TelemetryBus& bus_;
  telemetry::SubscriptionId sub_;
  std::vector<microsvc::CompletionRecord> records_;
};

using microsvc::Application;
using microsvc::Hop;
using microsvc::RequestTypeSpec;
using microsvc::ServiceId;
using microsvc::ServiceSpec;

inline ServiceSpec Svc(std::string name, std::int32_t threads,
                       std::int32_t cores) {
  ServiceSpec s;
  s.name = std::move(name);
  s.threads_per_replica = threads;
  s.cores_per_replica = cores;
  s.initial_replicas = 1;
  s.max_replicas = 8;
  return s;
}

inline RequestTypeSpec Type(std::string name, std::vector<Hop> hops,
                            double heavy = 1.6) {
  RequestTypeSpec t;
  t.name = std::move(name);
  t.hops = std::move(hops);
  t.heavy_multiplier = heavy;
  return t;
}

/// Two paths with distinct worker bottlenecks behind one small shared
/// upstream service (parallel dependency), plus a well-provisioned gateway.
/// Type ids: 0 = "a", 1 = "b".
inline Application TwoPathParallelApp(
    microsvc::ServiceTimeDist dist = microsvc::ServiceTimeDist::kDeterministic,
    std::int32_t um_threads = 12) {
  Application::Builder b;
  b.SetName("two-path-parallel").SetServiceTimeDist(dist).SetNetLatency(
      Us(200));
  const ServiceId gw = b.AddService(Svc("gw", 2048, 8));
  const ServiceId um = b.AddService(Svc("um", um_threads, 4));
  const ServiceId wa = b.AddService(Svc("worker-a", 64, 2));
  const ServiceId wb = b.AddService(Svc("worker-b", 64, 2));
  const ServiceId leaf = b.AddService(Svc("leaf", 128, 2));
  b.AddRequestType(Type("a", {{gw, Us(200), 0},
                              {um, Us(1000), Us(400)},
                              {wa, Us(9000), Us(500)},
                              {leaf, Us(400), 0}}));
  b.AddRequestType(Type("b", {{gw, Us(200), 0},
                              {um, Us(1000), Us(400)},
                              {wb, Us(9000), Us(500)},
                              {leaf, Us(400), 0}}));
  return std::move(b).Build();
}

/// Sequential dependency: path "up" bottlenecks on the shared upstream
/// service itself; path "down" bottlenecks on a worker below it.
/// Type ids: 0 = "up", 1 = "down".
inline Application SequentialApp(
    microsvc::ServiceTimeDist dist =
        microsvc::ServiceTimeDist::kDeterministic) {
  Application::Builder b;
  b.SetName("sequential").SetServiceTimeDist(dist).SetNetLatency(Us(200));
  const ServiceId gw = b.AddService(Svc("gw", 2048, 8));
  const ServiceId um = b.AddService(Svc("um", 12, 4));
  const ServiceId w = b.AddService(Svc("worker", 64, 2));
  const ServiceId leaf = b.AddService(Svc("leaf", 128, 2));
  b.AddRequestType(Type("up", {{gw, Us(200), 0},
                               {um, Us(30000), Us(1000)},
                               {leaf, Us(400), 0}}));
  b.AddRequestType(Type("down", {{gw, Us(200), 0},
                                 {um, Us(1000), Us(400)},
                                 {w, Us(9000), Us(500)},
                                 {leaf, Us(400), 0}}));
  return std::move(b).Build();
}

/// Two fully independent paths (share only the huge gateway): no dependency.
/// Type ids: 0 = "x", 1 = "y".
inline Application DisjointApp(
    microsvc::ServiceTimeDist dist =
        microsvc::ServiceTimeDist::kDeterministic) {
  Application::Builder b;
  b.SetName("disjoint").SetServiceTimeDist(dist).SetNetLatency(Us(200));
  const ServiceId gw = b.AddService(Svc("gw", 2048, 8));
  const ServiceId wx = b.AddService(Svc("worker-x", 64, 2));
  const ServiceId wy = b.AddService(Svc("worker-y", 64, 2));
  const ServiceId lx = b.AddService(Svc("leaf-x", 128, 2));
  const ServiceId ly = b.AddService(Svc("leaf-y", 128, 2));
  b.AddRequestType(Type("x", {{gw, Us(200), 0},
                              {wx, Us(9000), Us(500)},
                              {lx, Us(400), 0}}));
  b.AddRequestType(Type("y", {{gw, Us(200), 0},
                              {wy, Us(9000), Us(500)},
                              {ly, Us(400), 0}}));
  return std::move(b).Build();
}

/// Single three-hop chain for request-lifecycle arithmetic.
/// Type id 0 = "chain". Demands: 1ms, 5ms(+1ms post), 2ms; net 200us/msg.
inline Application SingleChainApp(
    microsvc::ServiceTimeDist dist =
        microsvc::ServiceTimeDist::kDeterministic) {
  Application::Builder b;
  b.SetName("chain").SetServiceTimeDist(dist).SetNetLatency(Us(200));
  const ServiceId s0 = b.AddService(Svc("s0", 8, 2));
  const ServiceId s1 = b.AddService(Svc("s1", 8, 2));
  const ServiceId s2 = b.AddService(Svc("s2", 8, 2));
  b.AddRequestType(Type("chain", {{s0, Us(1000), 0},
                                  {s1, Us(5000), Us(1000)},
                                  {s2, Us(2000), 0}},
                        2.0));
  return std::move(b).Build();
}

/// The timer-churn shape: a scaled-out, defended chain (per-attempt RPC
/// timeouts, retries with backoff, an end-to-end deadline, deep bounded
/// queues, bulkheads, adaptive limits and deadline shedding) meant to be fed
/// kTimerHeavyBatch requests at one instant. The burst builds a deep entry
/// queue, so a request spends most of its life waiting while holding only
/// its timeout guard, which is far enough out to be filed in the engine's
/// timer wheel. Most guards are cancelled by an in-time reply; the
/// exponential service-time tail lets a minority fire into retries.
/// Type id 0 = "timed-chain".
inline Application TimerHeavyApp() {
  Application::Builder b;
  microsvc::RpcPolicy pol;
  pol.timeout = Ms(150);
  pol.max_retries = 2;
  pol.backoff_base = Ms(2);
  pol.backoff_multiplier = 2.0;
  pol.nominal_rtt = Ms(50);
  b.SetName("bench-timer-chain")
      .SetServiceTimeDist(microsvc::ServiceTimeDist::kExponential)
      .SetNetLatency(Us(200))
      .SetDefaultRpcPolicy(pol);
  ServiceSpec spec = Svc("", 32, 2);
  spec.initial_replicas = 16;
  spec.max_replicas = 16;
  spec.max_queue_per_replica = 256;
  spec.bulkhead_per_downstream = 64;
  spec.adaptive_limit.enabled = true;
  spec.adaptive_limit.max_limit = 64;
  spec.deadline_shed.enabled = true;
  spec.name = "t0";
  const ServiceId t0 = b.AddService(spec);
  spec.name = "t1";
  const ServiceId t1 = b.AddService(spec);
  spec.name = "t2";
  const ServiceId t2 = b.AddService(spec);
  RequestTypeSpec t =
      Type("timed-chain", {{t0, Us(1000), 0}, {t1, Us(1000), 0},
                           {t2, Us(1000), 0}});
  t.deadline = Ms(400);
  b.AddRequestType(t);
  return std::move(b).Build();
}

/// Requests per TimerHeavyApp burst. Sized so the entry queue's worst-case
/// wait (batch / service capacity, ~78 ms at 16 replicas x 2 cores x 1 ms)
/// stays under the 150 ms attempt timeout.
inline constexpr int kTimerHeavyBatch = 2500;

}  // namespace grunt::testing
