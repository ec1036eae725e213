#include "scenario/registry.h"

#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>

#include "scenario/builtin_apps.h"
#include "scenario/generate.h"

namespace grunt::scenario {

namespace {

ScenarioSpec MubenchAtScale(std::int32_t services) {
  MubenchParams params;
  params.services = services;
  // Seeds follow bench_table4_live: seed = service count.
  return GenerateMubench(static_cast<std::uint64_t>(services), params);
}

}  // namespace

const std::vector<RegisteredScenario>& BuiltinScenarios() {
  static const std::vector<RegisteredScenario> kBuiltins = {
      {"socialnetwork",
       "DeathStarBench SocialNetwork, 7000 closed-loop users (Table I "
       "reference)",
       [] { return SocialNetworkScenario(); }},
      {"hotelreservation",
       "HotelReservation travel-booking topology, 5000 closed-loop users",
       [] { return HotelReservationScenario(); }},
      {"socialnetwork_defended",
       "SocialNetwork with the anti-Grunt degradation layer (timeouts, "
       "bulkheads, adaptive limits, deadline shedding)",
       [] { return SocialNetworkDefendedScenario(); }},
      {"mubench-62", "generated unknown-architecture app, 62 services "
                     "(Table IV App.1)",
       [] { return MubenchAtScale(62); }},
      {"mubench-118", "generated unknown-architecture app, 118 services "
                      "(Table IV App.2)",
       [] { return MubenchAtScale(118); }},
      {"mubench-196", "generated unknown-architecture app, 196 services "
                      "(Table IV App.3)",
       [] { return MubenchAtScale(196); }},
  };
  return kBuiltins;
}

std::optional<ScenarioSpec> MakeBuiltin(std::string_view name) {
  for (const auto& builtin : BuiltinScenarios()) {
    if (builtin.name == name) return builtin.make();
  }
  return std::nullopt;
}

ScenarioSpec ResolveScenario(const std::string& name_or_path) {
  if (auto builtin = MakeBuiltin(name_or_path)) return *std::move(builtin);
  // Heuristic: a bare word that is not a builtin is more likely a typo than
  // a file in the working directory; require path-ish arguments for files.
  if (name_or_path.find('/') == std::string::npos &&
      name_or_path.find('.') == std::string::npos) {
    throw std::invalid_argument("unknown scenario \"" + name_or_path +
                                "\" (not a builtin; spec files need a path "
                                "or .json suffix)\nbuiltins:\n" +
                                ListScenariosText());
  }
  return LoadScenarioFile(name_or_path);
}

std::string ListScenariosText() {
  std::string out;
  for (const auto& builtin : BuiltinScenarios()) {
    out += "  " + builtin.name + " - " + builtin.description + "\n";
  }
  return out;
}

ScenarioArgs ParseScenarioArgs(int argc, char** argv) {
  ScenarioArgs out;
  std::string selected;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list-scenarios") == 0) {
      std::printf("built-in scenarios (or pass a spec-file path):\n%s",
                  ListScenariosText().c_str());
      out.should_exit = true;
      return out;
    }
    if (std::strncmp(arg, "--scenario=", 11) == 0) {
      selected = arg + 11;
    } else if (std::strcmp(arg, "--scenario") == 0) {
      selected = i + 1 < argc ? argv[++i] : "";
    } else {
      continue;
    }
    if (selected.empty()) {
      std::fprintf(stderr, "--scenario needs a value\n");
      out.should_exit = true;
      out.exit_code = 2;
      return out;
    }
  }
  if (selected.empty()) return out;
  try {
    out.scenario = std::make_unique<ScenarioSpec>(ResolveScenario(selected));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--scenario %s: %s\n", selected.c_str(), e.what());
    out.should_exit = true;
    out.exit_code = 2;
  }
  return out;
}

}  // namespace grunt::scenario
