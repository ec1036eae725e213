#pragma once

// Exists only for perfbench/, which may change only together with the repo
// benchmark and still builds its campaign_social setup through these names.
// Everything else builds from scenario::SocialNetworkScenario (or any other
// ScenarioSpec) with BuildApplication / BuildNavigator directly.

#include "scenario/builtin_apps.h"
#include "scenario/loader.h"

namespace grunt::apps {

using SocialNetworkOptions = scenario::DeploymentParams;

inline microsvc::Application MakeSocialNetwork(
    const SocialNetworkOptions& opts = {}) {
  return scenario::BuildApplication(
      scenario::SocialNetworkScenario(opts).topology);
}

inline workload::MarkovNavigator SocialNetworkNavigator(
    const microsvc::Application& app) {
  return scenario::BuildNavigator(app,
                                  scenario::SocialNetworkScenario().workload);
}

}  // namespace grunt::apps
