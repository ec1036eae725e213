// Command-line driver for exploring the library without writing code:
//
//   grunt_cli [--app socialnetwork|hotelreservation|mubench]
//             [--users N] [--attack-seconds S] [--coverage F]
//             [--groups N] [--seed N] [--no-attack]
//
// Deploys the chosen application with the full operator stack, runs the
// complete blackbox campaign, and prints a summary report.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "attack/grunt_attack.h"
#include "attack/sim_target_client.h"
#include "cloud/autoscaler.h"
#include "cloud/ids.h"
#include "cloud/monitor.h"
#include "microsvc/cluster.h"
#include "scenario/builtin_apps.h"
#include "scenario/generate.h"
#include "scenario/loader.h"
#include "workload/workload.h"

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

bool Parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--app") {
      const char* v = value("--app");
      if (!v) return false;
      args.app = v;
    } else if (flag == "--users") {
      const char* v = value("--users");
      if (!v) return false;
      args.users = std::atoi(v);
    } else if (flag == "--attack-seconds") {
      const char* v = value("--attack-seconds");
      if (!v) return false;
      args.attack_seconds = std::atoi(v);
    } else if (flag == "--coverage") {
      const char* v = value("--coverage");
      if (!v) return false;
      args.coverage = std::atof(v);
    } else if (flag == "--groups") {
      const char* v = value("--groups");
      if (!v) return false;
      args.max_groups = static_cast<std::size_t>(std::atoi(v));
    } else if (flag == "--seed") {
      const char* v = value("--seed");
      if (!v) return false;
      args.seed = static_cast<std::uint64_t>(std::atoll(v));
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
  if (args.users < 1 || args.attack_seconds < 1 || args.coverage <= 0 ||
      args.coverage > 1) {
    std::fprintf(stderr, "invalid argument values\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, args)) return 2;

  const scenario::ScenarioSpec spec = [&] {
    if (args.app == "hotelreservation") {
      return scenario::HotelReservationScenario();
    }
    if (args.app == "mubench") return scenario::GenerateMubench(args.seed);
    return scenario::SocialNetworkScenario();
  }();
  const microsvc::Application app = scenario::BuildApplication(spec.topology);

  sim::Simulation sim;
  microsvc::Cluster cluster(sim, app, args.seed);
  workload::ClosedLoopWorkload::Config wl;
  wl.users = args.users;
  wl.navigator = scenario::BuildNavigator(app, spec.workload);
  workload::ClosedLoopWorkload users(cluster, wl, args.seed);
  users.Start();

  cloud::ResourceMonitor cloudwatch(cluster, {Sec(1), "cloudwatch"});
  cloud::ResponseTimeMonitor rt(cluster, {Sec(1), "rt"});
  cloud::AutoScaler scaler(cluster, cloudwatch, {});
  cloud::Ids ids(cluster, &cloudwatch, &rt, {});
  cloudwatch.Start();
  rt.Start();
  scaler.Start();
  ids.Start();

  std::printf("deployed %s: %zu services, %zu public paths, %d users\n",
              app.name().c_str(), app.service_count(),
              app.PublicDynamicTypes().size(), args.users);
  sim.RunUntil(Sec(40));
  const Samples base = rt.LegitWindow(Sec(15), Sec(40));
  std::printf("baseline: mean RT %.1f ms, p95 %.1f ms (%zu requests)\n",
              base.mean(), base.Percentile(95), base.count());
  if (!args.attack) return 0;

  attack::SimTargetClient client(cluster, {args.coverage, args.seed});
  attack::GruntConfig cfg;
  cfg.max_groups = args.max_groups;
  attack::GruntAttack grunt(client, cfg);
  bool done = false;
  SimTime attack_start = 0;
  grunt.OnAttackPhaseStart([&](SimTime at) {
    attack_start = at;
    std::printf("attack phase begins at t=%.0fs\n", ToSeconds(at));
  });
  grunt.Run(Sec(args.attack_seconds),
            [&](const attack::GruntReport&) { done = true; });
  while (!done && sim.Now() < Sec(7200)) sim.RunUntil(sim.Now() + Sec(10));
  if (!done) {
    std::fprintf(stderr, "campaign did not finish\n");
    return 1;
  }

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
  for (const auto& a : scaler.actions()) actions += (a.at >= attack_start);
  std::printf("\nunder attack: mean RT %.1f ms (%.1fx), p95 %.1f ms\n",
              att.mean(), base.mean() > 0 ? att.mean() / base.mean() : 0,
              att.Percentile(95));
  std::printf("stealth: mean P_MB %.0f ms, %zu bots, %zu scale actions, "
              "%zu attributable IDS alerts\n",
              report.MeanPmbMs(), report.bots_used, actions,
              ids.attributed_attack_alerts());
  return 0;
}
