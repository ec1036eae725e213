#pragma once

// Tiny fixture topology for bench_micro_engine (mirrors the test tree's
// SingleChainApp without depending on it).

#include "microsvc/application.h"

namespace grunt::bench_fixtures {

inline microsvc::Application SingleChainApp() {
  microsvc::Application::Builder b;
  b.SetName("bench-chain")
      .SetServiceTimeDist(microsvc::ServiceTimeDist::kDeterministic)
      .SetNetLatency(Us(200));
  microsvc::ServiceSpec spec;
  spec.threads_per_replica = 8;
  spec.cores_per_replica = 2;
  spec.initial_replicas = 1;
  spec.max_replicas = 8;
  spec.name = "s0";
  const auto s0 = b.AddService(spec);
  spec.name = "s1";
  const auto s1 = b.AddService(spec);
  spec.name = "s2";
  const auto s2 = b.AddService(spec);
  microsvc::RequestTypeSpec t;
  t.name = "chain";
  t.hops = {{s0, Us(1000), 0}, {s1, Us(5000), Us(1000)}, {s2, Us(2000), 0}};
  b.AddRequestType(t);
  return std::move(b).Build();
}

}  // namespace grunt::bench_fixtures
