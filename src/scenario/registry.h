#pragma once

// Scenario registry: the named catalogue behind `--scenario=<name|file>`.
// Builtins are spec factories (so they honor the current code's defaults);
// anything that is not a builtin name is resolved as a spec-file path.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.h"

namespace grunt::scenario {

struct RegisteredScenario {
  std::string name;
  std::string description;
  std::function<ScenarioSpec()> make;
};

/// The built-in scenarios, in listing order: the two hand-modeled apps plus
/// the three paper-scale generated ones (Table IV's App.1-3, seed = size).
const std::vector<RegisteredScenario>& BuiltinScenarios();

/// Builds a builtin by name; nullopt if `name` is not registered.
std::optional<ScenarioSpec> MakeBuiltin(std::string_view name);

/// Resolves a `--scenario` argument: a builtin name, else a spec-file path.
/// Throws std::invalid_argument / json::Error with context on failure.
ScenarioSpec ResolveScenario(const std::string& name_or_path);

/// Human-readable catalogue, one "name - description" line per builtin
/// (the body of `--list-scenarios`).
std::string ListScenariosText();

/// Scenario selection shared by the benches and tools.
struct ScenarioArgs {
  /// Set when --scenario=<name|file> was given and resolved.
  std::unique_ptr<ScenarioSpec> scenario;
  bool should_exit = false;  ///< --list-scenarios handled, or resolve error
  int exit_code = 0;
};

/// Parses `--scenario=<name|file>` / `--scenario <name|file>` and
/// `--list-scenarios` out of argv. On --list-scenarios prints the registry
/// catalogue; on a missing value or a resolve failure prints the error to
/// stderr and asks for exit code 2. Other arguments are ignored (callers
/// keep their own flags).
ScenarioArgs ParseScenarioArgs(int argc, char** argv);

}  // namespace grunt::scenario
