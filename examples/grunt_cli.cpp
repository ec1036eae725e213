// Command-line driver for exploring the library without writing code:
//
//   grunt_cli [--app socialnetwork|hotelreservation|mubench]
//             [--users N] [--attack-seconds S] [--coverage F]
//             [--groups N] [--seed N] [--no-attack]
//
// Deploys the chosen application with the full operator stack, runs the
// complete blackbox campaign, and prints a summary report.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>

#include "rig.h"
#include "scenario/builtin_apps.h"
#include "scenario/generate.h"
#include "util/env.h"

using namespace grunt;

namespace {

struct Args {
  std::string app = "socialnetwork";
  std::int32_t users = 7000;
  std::int32_t attack_seconds = 60;
  double coverage = 1.0;
  std::size_t max_groups = 0;
  std::uint64_t seed = 42;
  bool attack = true;
};

void Usage() {
  std::printf(
      "usage: grunt_cli [--app socialnetwork|hotelreservation|mubench]\n"
      "                 [--users N] [--attack-seconds S] [--coverage F]\n"
      "                 [--groups N] [--seed N] [--no-attack]\n");
}

bool KnownApp(const std::string& app) {
  return app == "socialnetwork" || app == "hotelreservation" ||
         app == "mubench";
}

bool Parse(int argc, char** argv, Args& args) {
  constexpr std::uint64_t kMaxInt32 =
      std::numeric_limits<std::int32_t>::max();
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      // A missing value reads as "", which every value check rejects.
      const auto value = [&] { return i + 1 < argc ? argv[++i] : ""; };
      // Plain decimal digits in [min, max], the whole string.
      const auto count = [&](std::uint64_t min, std::uint64_t max) {
        return util::ParseDecimal(flag.c_str(), value(), min, max);
      };
      if (flag == "--app") {
        args.app = value();
        if (!KnownApp(args.app)) {
          std::fprintf(stderr, "unknown --app \"%s\"\n", args.app.c_str());
          Usage();
          return false;
        }
      } else if (flag == "--users") {
        args.users = static_cast<std::int32_t>(count(1, kMaxInt32));
      } else if (flag == "--attack-seconds") {
        args.attack_seconds = static_cast<std::int32_t>(count(1, kMaxInt32));
      } else if (flag == "--coverage") {
        // The whole string must be the number: strtod alone skips leading
        // blanks and stops at trailing garbage.
        const char* v = value();
        char* end = nullptr;
        args.coverage = std::strtod(v, &end);
        if (end == v || *end != '\0' ||
            std::isspace(static_cast<unsigned char>(*v)) ||
            !(args.coverage > 0 && args.coverage <= 1)) {
          throw util::EnvError("--coverage=\"" + std::string(v) +
                               "\": expected a number in (0, 1]");
        }
      } else if (flag == "--groups") {
        args.max_groups = count(0, kMaxInt32);
      } else if (flag == "--seed") {
        args.seed = count(0, std::numeric_limits<std::uint64_t>::max());
      } else if (flag == "--no-attack") {
        args.attack = false;
      } else if (flag == "--help" || flag == "-h") {
        Usage();
        return false;
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
        Usage();
        return false;
      }
    }
  } catch (const util::EnvError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  Args args;
  if (!Parse(argc, argv, args)) return 2;

  scenario::ScenarioSpec spec = [&] {
    if (args.app == "hotelreservation") {
      return scenario::HotelReservationScenario();
    }
    if (args.app == "mubench") return scenario::GenerateMubench(args.seed);
    return scenario::SocialNetworkScenario();  // KnownApp() checked the rest
  }();
  spec.workload.users = args.users;
  bench::ScenarioRig rig(spec, args.seed);
  const auto& app = rig.app();
  const auto& rt = rig.rt_monitor();

  std::printf("deployed %s: %zu services, %zu public paths, %d users\n",
              app.name().c_str(), app.service_count(),
              app.PublicDynamicTypes().size(), args.users);
  rig.RunUntil(Sec(40));
  const Samples base = rt.LegitWindow(Sec(15), Sec(40));
  std::printf("baseline: mean RT %.1f ms, p95 %.1f ms (%zu requests)\n",
              base.mean(), base.Percentile(95), base.count());
  if (!args.attack) return 0;

  attack::SimTargetClient client(rig.cluster(), {args.coverage, args.seed});
  attack::GruntConfig cfg;
  cfg.max_groups = args.max_groups;
  attack::GruntAttack grunt(client, cfg);
  const SimTime attack_start = bench::RunGrunt(
      rig.sim(), grunt, Sec(args.attack_seconds), nullptr, "campaign");
  std::printf("attack phase begins at t=%.0fs\n", ToSeconds(attack_start));

  const auto& report = grunt.report();
  std::printf("\ndependency groups (crawl coverage %.0f%%):\n",
              args.coverage * 100);
  for (const auto& g : report.profile.groups) {
    std::printf("  {");
    for (std::size_t i = 0; i < g.size(); ++i) {
      std::printf("%s%s", i ? ", " : "", app.request_type(g[i]).name.c_str());
    }
    std::printf("}\n");
  }
  const Samples att = rt.LegitWindow(attack_start + Sec(5),
                                     attack_start + Sec(args.attack_seconds));
  std::size_t actions = 0;
  for (const auto& a : rig.autoscaler()->actions()) {
    actions += (a.at >= attack_start);
  }
  std::printf("\nunder attack: mean RT %.1f ms (%.1fx), p95 %.1f ms\n",
              att.mean(), base.mean() > 0 ? att.mean() / base.mean() : 0,
              att.Percentile(95));
  std::printf("stealth: mean P_MB %.0f ms, %zu bots, %zu scale actions, "
              "%zu attributable IDS alerts\n",
              report.MeanPmbMs(), report.bots_used, actions,
              rig.ids()->attributed_attack_alerts());
  return 0;
} catch (const std::exception& e) {  // e.g. a campaign that hit the cap
  std::fprintf(stderr, "%s\n", e.what());
  return 1;
}
