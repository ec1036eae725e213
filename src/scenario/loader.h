#pragma once

// Turns the declarative IR into runtime objects: a microsvc::Application
// and a workload mix / navigator (ScenarioRig in scenario/deployment.h
// wires them to the operator stack). The reverse direction — Application →
// TopologySpec — lets a hand-built application be deployed as a scenario;
// the round-trip tests pin it.

#include "microsvc/application.h"
#include "scenario/spec.h"
#include "workload/workload.h"

namespace grunt::scenario {

/// Builds the runtime application from a topology spec. Endpoint stages are
/// flattened to the runtime's sequential chain (calls of one stage in
/// declaration order). Throws std::invalid_argument on dangling service
/// references (naming the endpoint and service) and propagates every
/// Application::Builder validation error.
microsvc::Application BuildApplication(const TopologySpec& spec);

/// The workload's request mix resolved against a built application. An
/// empty spec mix yields the uniform mix over the app's public dynamic
/// types. Throws std::invalid_argument on unknown endpoint names.
workload::RequestMix BuildRequestMix(const microsvc::Application& app,
                                     const WorkloadSpec& spec);

/// Markov navigator for a closed-loop workload: every row equals the mix
/// weights (stationary distribution == popularity, the idiom every built-in
/// app uses).
workload::MarkovNavigator BuildNavigator(const microsvc::Application& app,
                                         const WorkloadSpec& spec);

/// Dumps a built application back into the IR (one single-call stage per
/// hop). BuildApplication(TopologyFromApplication(app)) is structurally
/// identical to `app` — the round-trip invariant the tests pin.
TopologySpec TopologyFromApplication(const microsvc::Application& app);

}  // namespace grunt::scenario
