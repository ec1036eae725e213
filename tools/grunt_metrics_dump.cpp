// Telemetry-plane dump tool: deploy a scenario under its configured
// workload + operator stack, run it for a stretch of simulated time, and
// emit the cluster's full metrics-registry snapshot as JSON — the same
// byte-stable exporter the benches use for their GRUNT_METRICS_JSON
// artifacts, runnable standalone for quick observability checks.
//
//   grunt_metrics_dump --scenario=<name|file> [--seconds=N] [--seed=S]
//                      [--out=FILE]
//   grunt_metrics_dump --list-scenarios
//
// Defaults: 30 simulated seconds, seed 7, stdout.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <string>

#include "rig.h"
#include "util/env.h"
#include "util/json.h"

using namespace grunt;

namespace {

/// One simulated day: far beyond any useful dump, far inside SimTime.
constexpr std::uint64_t kMaxSeconds = 86'400;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --scenario=<name|file> [--seconds=N] [--seed=S] "
               "[--out=FILE]\n       %s --list-scenarios\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seconds = 30;
  std::uint64_t seed = 7;
  std::string out_path;
  // ParseScenarioArgs handles --scenario/--list-scenarios; the rest here.
  try {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--seconds=", 10) == 0) {
        seconds = util::ParseDecimal("--seconds", arg + 10, 1, kMaxSeconds);
      } else if (std::strncmp(arg, "--seed=", 7) == 0) {
        seed = util::ParseDecimal("--seed", arg + 7, 0,
                                  std::numeric_limits<std::uint64_t>::max());
      } else if (std::strncmp(arg, "--out=", 6) == 0) {
        out_path = arg + 6;
      } else if (std::strncmp(arg, "--scenario", 10) == 0 ||
                 std::strcmp(arg, "--list-scenarios") == 0) {
        if (std::strcmp(arg, "--scenario") == 0) ++i;  // consumes a value
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", arg);
        return Usage(argv[0]);
      }
    }
  } catch (const util::EnvError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  auto scenario_args = bench::ParseScenarioArgs(argc, argv);
  if (scenario_args.should_exit) return scenario_args.exit_code;
  if (scenario_args.scenario == nullptr) return Usage(argv[0]);

  try {
    bench::ScenarioRig rig(*scenario_args.scenario, seed);
    rig.RunUntil(Sec(static_cast<std::int64_t>(seconds)));
    const json::Value snapshot =
        rig.cluster().telemetry().metrics().Snapshot();
    if (out_path.empty()) {
      std::printf("%s\n", snapshot.Dump(2).c_str());
    } else {
      json::WriteFile(out_path, snapshot);
      std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  return 0;
}
