// Spec lint / dump tool, run in CI against every shipped specs/ file.
//
//   grunt_spec_check FILE...          load + build every spec file, each
//                                     one whatever the ones before it did;
//                                     for the builtin-named ones, also
//                                     check they are byte-identical to what
//                                     --dump-builtin NAME FILE writes
//   grunt_spec_check --dump-builtin NAME [FILE]
//                                     dump a builtin scenario's spec (stdout
//                                     or FILE) — how specs/ is (re)generated
//   grunt_spec_check --list           list builtin scenario names

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <string>

#include "scenario/loader.h"
#include "scenario/registry.h"
#include "scenario/spec.h"

using namespace grunt;

namespace {

// specs/<name>.json shadows the builtin <name>; drift between the shipped
// file and the code factory is a CI failure, down to the byte: a hand edit
// that parses to the same spec (a dropped default key, say) still drifts.
std::string BuiltinNameForPath(const std::string& path) {
  const auto slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  const std::string suffix = ".json";
  if (base.size() > suffix.size() &&
      base.compare(base.size() - suffix.size(), suffix.size(), suffix) == 0) {
    base.resize(base.size() - suffix.size());
  }
  return base;
}

/// Lints one file; returns 1 on any failure, printed as "<path>: <error>".
int CheckFile(const std::string& path) try {
  // Loading resolves the hops' service names; building runs the
  // Application validator on what loaded.
  const scenario::ScenarioSpec spec = scenario::LoadScenarioFile(path);
  const auto app = scenario::BuildApplication(spec.topology);
  std::string note;
  if (auto builtin = scenario::MakeBuiltin(BuiltinNameForPath(path))) {
    std::ifstream in(path, std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in), {}};
    if (bytes != scenario::ScenarioFileText(*builtin)) {
      std::fprintf(stderr,
                   "%s: drifted from the builtin \"%s\" (regenerate with "
                   "--dump-builtin %s %s)\n",
                   path.c_str(), BuiltinNameForPath(path).c_str(),
                   BuiltinNameForPath(path).c_str(), path.c_str());
      return 1;
    }
    note = ", matches builtin";
  }
  // Round-trip stability: dump(parse(dump)) == dump.
  const std::string dumped = scenario::DumpScenario(spec);
  if (scenario::DumpScenario(scenario::ParseScenario(dumped)) != dumped) {
    std::fprintf(stderr, "%s: dump/parse round-trip is not stable\n",
                 path.c_str());
    return 1;
  }
  std::printf("%s: ok (%zu services, %zu endpoints%s)\n", path.c_str(),
              app.service_count(), app.request_type_count(), note.c_str());
  return 0;
} catch (const std::exception& e) {
  // A load error already leads with the path; a build error does not.
  const std::string what = e.what();
  std::fprintf(stderr, "%s\n",
               (what.starts_with(path + ": ") ? what : path + ": " + what)
                   .c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "--list") == 0) {
      std::printf("%s", scenario::ListScenariosText().c_str());
      return 0;
    }
    if (argc >= 3 && std::strcmp(argv[1], "--dump-builtin") == 0) {
      auto spec = scenario::MakeBuiltin(argv[2]);
      if (!spec) {
        std::fprintf(stderr, "unknown builtin \"%s\"; builtins:\n%s", argv[2],
                     scenario::ListScenariosText().c_str());
        return 2;
      }
      if (argc >= 4) {
        scenario::SaveScenarioFile(argv[3], *spec);
        std::printf("wrote %s\n", argv[3]);
      } else {
        std::printf("%s", scenario::DumpScenario(*spec).c_str());
      }
      return 0;
    }
    if (argc < 2) {
      std::fprintf(stderr,
                   "usage: grunt_spec_check FILE...\n"
                   "       grunt_spec_check --dump-builtin NAME [FILE]\n"
                   "       grunt_spec_check --list\n");
      return 2;
    }
    int failures = 0;
    for (int i = 1; i < argc; ++i) failures += CheckFile(argv[i]);
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grunt_spec_check: %s\n", e.what());
    return 1;
  }
}
