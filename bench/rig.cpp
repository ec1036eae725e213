#include "rig.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "scenario/builder.h"
#include "scenario/builtin_apps.h"
#include "scenario/loader.h"
#include "util/env.h"
#include "util/json.h"

namespace grunt::bench {

namespace {

/// Per-campaign observability artifact: when GRUNT_METRICS_JSON names a
/// path, the campaign functions dump the cluster's full telemetry-registry
/// snapshot before tearing the rig down, with the campaign `label`
/// (sanitized) inserted before the extension — "metrics.json" under the
/// "EC2-7K" setting becomes "metrics.EC2-7K.json" — so multi-campaign
/// benches keep one artifact per campaign instead of overwriting a single
/// file with whichever campaign ran last.
void MaybeExportMetrics(microsvc::Cluster& cluster,
                        const std::string& label) {
  const char* env = std::getenv("GRUNT_METRICS_JSON");
  if (env == nullptr || env[0] == '\0') return;
  std::string clean;
  clean.reserve(label.size());
  for (const char c : label) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    clean.push_back(ok ? c : '_');
  }
  std::string path = env;
  if (!clean.empty()) {
    const std::size_t slash = path.find_last_of('/');
    const std::size_t dot = path.find_last_of('.');
    const bool has_ext =
        dot != std::string::npos &&
        (slash == std::string::npos || dot > slash);
    path.insert(has_ext ? dot : path.size(), "." + clean);
  }
  try {
    json::WriteFile(path, cluster.telemetry().metrics().Snapshot());
  } catch (const json::Error& e) {
    std::fprintf(stderr, "GRUNT_METRICS_JSON: %s\n", e.what());
  }
}

/// Env-gated engine observability: when GRUNT_ENGINE_STATS_TICK_MS is a
/// positive integer N, attaches a ticker that publishes the engine's
/// cumulative EngineStats on the cluster's engine_stats channel every N
/// sim-milliseconds, plus a compact stderr subscriber so the stream is
/// visible without any extra wiring. Returns null when the variable is
/// unset or empty; any other value (garbage, zero, negative, a unit suffix,
/// more than a simulated day) throws util::EnvError naming the variable.
std::unique_ptr<telemetry::EngineStatsTicker> MaybeStartEngineStatsTicker(
    sim::Simulation& sim, microsvc::Cluster& cluster) {
  const auto ms = static_cast<std::int64_t>(util::PositiveEnvOr(
      "GRUNT_ENGINE_STATS_TICK_MS", 0, /*max: one simulated day*/ 86'400'000));
  if (ms == 0) return nullptr;
  auto& bus = cluster.telemetry();
  bus.engine_stats().Subscribe([](const telemetry::EngineStatsEvent& e) {
    const auto& s = e.stats;
    std::fprintf(
        stderr,
        "[engine t=%.3fs] scheduled=%llu inline=%llu wheel=%llu/%zu "
        "cancelled=%llu\n",
        ToSeconds(e.at),
        static_cast<unsigned long long>(s.events_scheduled),
        static_cast<unsigned long long>(s.inline_callbacks),
        static_cast<unsigned long long>(s.wheel_scheduled),
        s.wheel_occupancy,
        static_cast<unsigned long long>(s.cancelled_popped +
                                        s.cancelled_purged +
                                        s.wheel_cancelled));
  });
  auto ticker = std::make_unique<telemetry::EngineStatsTicker>(sim, bus);
  ticker->Start(Ms(ms));
  return ticker;
}

}  // namespace

std::vector<CloudSetting> PaperSettings() {
  return {
      {"EC2-7K", 7000, 1.00, 1},   {"EC2-12K", 12000, 1.00, 2},
      {"Azure-4K", 4000, 0.95, 1}, {"Azure-9K", 9000, 0.95, 2},
      {"CloudLab-5K", 5000, 1.05, 1}, {"CloudLab-11K", 11000, 1.05, 2},
  };
}

scenario::ScenarioSpec SocialNetworkSpec(const CloudSetting& setting) {
  scenario::DeploymentParams deploy;
  deploy.replica_scale = setting.replica_scale;
  deploy.capacity_scale = setting.capacity_scale;
  deploy.users = setting.users;
  scenario::ScenarioSpec spec = scenario::SocialNetworkScenario(deploy);
  spec.name = setting.name;
  return spec;
}

ScenarioRig::ScenarioRig(const scenario::ScenarioSpec& spec,
                         std::uint64_t seed)
    : app_(scenario::BuildApplication(spec.topology)) {
  cluster_ = std::make_unique<microsvc::Cluster>(sim_, app_, seed);

  const auto& wl = spec.workload;
  if (wl.kind == scenario::WorkloadSpec::Kind::kClosedLoop) {
    workload::ClosedLoopWorkload::Config cfg;
    cfg.users = wl.users;
    cfg.think_mean = wl.think_mean;
    cfg.navigator = scenario::BuildNavigator(app_, wl);
    closed_users_ =
        std::make_unique<workload::ClosedLoopWorkload>(*cluster_, cfg, seed);
    closed_users_->Start();
  } else {
    workload::OpenLoopSource::Config cfg;
    cfg.rate = wl.rate;
    cfg.mix = scenario::BuildRequestMix(app_, wl);
    open_source_ =
        std::make_unique<workload::OpenLoopSource>(*cluster_, cfg, seed);
    open_source_->Start();
  }

  const auto& ops = spec.operators;
  cloudwatch_ = std::make_unique<cloud::ResourceMonitor>(
      *cluster_,
      cloud::ResourceMonitor::Config{ops.coarse_granularity, "cloudwatch"});
  fine_ = std::make_unique<cloud::ResourceMonitor>(
      *cluster_, cloud::ResourceMonitor::Config{ops.fine_granularity, "fine"});
  rt_ = std::make_unique<cloud::ResponseTimeMonitor>(
      *cluster_,
      cloud::ResponseTimeMonitor::Config{ops.rt_granularity, "rt"});
  if (ops.autoscaler_enabled) {
    scaler_ = std::make_unique<cloud::AutoScaler>(*cluster_, *cloudwatch_,
                                                  ops.autoscaler);
  }
  if (ops.ids_enabled) {
    ids_ = std::make_unique<cloud::Ids>(*cluster_, cloudwatch_.get(),
                                        rt_.get(), ops.ids);
  }
  cloudwatch_->Start();
  fine_->Start();
  rt_->Start();
  if (scaler_) scaler_->Start();
  if (ids_) ids_->Start();
  client_ = std::make_unique<attack::SimTargetClient>(*cluster_);
  stats_ticker_ = MaybeStartEngineStatsTicker(sim_, *cluster_);
}

void ScenarioRig::RunUntil(SimTime until) { sim_.RunUntil(until); }

bool ScenarioRig::RunUntilFlag(const bool& flag, SimTime cap) {
  while (!flag && sim_.Now() < cap) sim_.RunUntil(sim_.Now() + Sec(10));
  return flag;
}

microsvc::ServiceId ScenarioRig::HottestBackend(SimTime from,
                                                SimTime to) const {
  microsvc::ServiceId best = 0;
  double best_util = -1;
  for (std::size_t i = 0; i < cluster_->service_count(); ++i) {
    const auto sid = static_cast<microsvc::ServiceId>(i);
    if (app_.service(sid).threads_per_replica >=
        scenario::kGatewayThreads) {
      continue;  // gateways are never the representative bottleneck
    }
    const double util = cloudwatch_->cpu_util(sid).WindowMean(from, to);
    if (util > best_util) {
      best_util = util;
      best = sid;
    }
  }
  return best;
}

CampaignResult RunScenarioCampaign(const scenario::ScenarioSpec& spec,
                                   SimDuration attack_duration,
                                   std::uint64_t seed,
                                   attack::GruntConfig cfg,
                                   const attack::ProfileResult* profile) {
  ScenarioRig rig(spec, seed);
  const SimTime kBaseFrom = Sec(20), kBaseTo = Sec(50);
  rig.RunUntil(kBaseTo);

  CampaignResult result;
  result.base_rt_ms = rig.rt_monitor().LegitWindow(kBaseFrom, kBaseTo);
  result.base_goodput =
      rig.rt_monitor().goodput().WindowMean(kBaseFrom, kBaseTo);
  result.base_error_rate =
      rig.rt_monitor().error_rate().WindowMean(kBaseFrom, kBaseTo);
  result.base_mbps =
      rig.cloudwatch().gateway_mbps().WindowMean(kBaseFrom, kBaseTo);
  const auto hottest = rig.HottestBackend(kBaseFrom, kBaseTo);
  result.bottleneck_service = rig.app().service(hottest).name;
  result.base_cpu_pct =
      100.0 * rig.cloudwatch().cpu_util(hottest).WindowMean(kBaseFrom,
                                                            kBaseTo);

  attack::GruntAttack grunt(rig.client(), cfg);
  bool done = false;
  grunt.OnAttackPhaseStart([&](SimTime at) { result.attack_start = at; });
  auto on_done = [&](const attack::GruntReport& report) {
    result.report = report;
    done = true;
  };
  if (profile != nullptr) {
    grunt.RunWithProfile(*profile, attack_duration, on_done);
  } else {
    grunt.Run(attack_duration, on_done);
  }
  if (!rig.RunUntilFlag(done, Sec(7200))) {
    std::fprintf(stderr, "campaign for %s did not finish\n",
                 spec.name.c_str());
    return result;
  }
  result.attack_end = result.attack_start + attack_duration;
  const SimTime att_from = result.attack_start + Sec(5);
  const SimTime att_to = result.attack_end;

  result.att_rt_ms = rig.rt_monitor().LegitWindow(att_from, att_to);
  result.att_goodput =
      rig.rt_monitor().goodput().WindowMean(att_from, att_to);
  result.att_error_rate =
      rig.rt_monitor().error_rate().WindowMean(att_from, att_to);
  result.att_mbps =
      rig.cloudwatch().gateway_mbps().WindowMean(att_from, att_to);
  result.att_cpu_pct =
      100.0 * rig.cloudwatch().cpu_util(hottest).WindowMean(att_from, att_to);
  for (std::size_t i = 0; i < rig.cluster().service_count(); ++i) {
    const auto& svc =
        rig.cluster().service(static_cast<microsvc::ServiceId>(i));
    result.bulkhead_rejections += svc.bulkhead_rejections();
    result.limiter_rejections += svc.limiter_rejections();
    result.deadline_sheds += svc.deadline_sheds();
  }
  for (std::size_t o = 0; o < microsvc::kOutcomeCount; ++o) {
    result.legit_outcomes[o] = rig.rt_monitor().legit_outcome_count(
        static_cast<microsvc::Outcome>(o));
  }
  result.bots = result.report.bots_used;
  result.mean_pmb_ms = result.report.MeanPmbMs();
  if (rig.autoscaler() != nullptr) {
    for (const auto& action : rig.autoscaler()->actions()) {
      if (action.at >= result.attack_start && action.at < att_to) {
        ++result.scale_actions_during_attack;
      }
    }
  }
  if (rig.ids() != nullptr) {
    result.attributed_alerts = rig.ids()->attributed_attack_alerts();
  }
  MaybeExportMetrics(rig.cluster(), spec.name);
  return result;
}

std::vector<double> ScenarioRates(const microsvc::Application& app,
                                  const scenario::WorkloadSpec& workload) {
  const auto mix = scenario::BuildRequestMix(app, workload);
  double total_w = 0;
  for (double w : mix.weights) total_w += w;
  const double total_rate =
      workload.kind == scenario::WorkloadSpec::Kind::kClosedLoop
          ? static_cast<double>(workload.users) /
                ToSeconds(workload.think_mean)
          : workload.rate;
  std::vector<double> rates(app.request_type_count(), 0.0);
  for (std::size_t i = 0; i < mix.types.size(); ++i) {
    rates[static_cast<std::size_t>(mix.types[i])] =
        total_rate * mix.weights[i] / total_w;
  }
  return rates;
}

ScenarioArgs ParseScenarioArgs(int argc, char** argv) {
  ScenarioArgs out;
  std::string selected;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list-scenarios") == 0) {
      std::printf("built-in scenarios (or pass a spec-file path):\n%s",
                  scenario::ListScenariosText().c_str());
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
    out.scenario = std::make_unique<scenario::ScenarioSpec>(
        scenario::ResolveScenario(selected));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--scenario %s: %s\n", selected.c_str(), e.what());
    out.should_exit = true;
    out.exit_code = 2;
  }
  return out;
}

attack::ProfileResult TruthProfile(const microsvc::Application& app,
                                   const std::vector<double>& type_rates) {
  attack::ProfileResult profile;
  profile.baseline_rt_ms.assign(app.request_type_count(), 20.0);
  for (auto t : app.PublicDynamicTypes()) {
    profile.candidates.push_back(t);
    attack::PublicUrl url;
    url.url_id = t;
    url.path = "/" + app.request_type(t).name;
    profile.urls.push_back(url);
  }
  trace::GroundTruth truth(app, type_rates);
  trace::DependencyGroups groups(app.request_type_count());
  for (const auto& dep : truth.AllPairs()) {
    if (trace::IsDependent(dep.type)) {
      profile.pairs.push_back(dep);
      groups.Union(dep.a, dep.b);
    }
  }
  for (const auto& g : groups.Groups()) {
    if (!app.request_type(g.front()).is_static || g.size() > 1) {
      profile.groups.push_back(g);
    }
  }
  return profile;
}

int RunScenarioBench(const scenario::ScenarioSpec& spec, std::uint64_t seed) {
  Banner("Grunt campaign vs scenario \"" + spec.name + "\"",
         spec.description.empty() ? "user-selected scenario"
                                  : spec.description);
  std::printf("services: %zu, endpoints: %zu, workload: %s\n\n",
              spec.topology.services.size(), spec.topology.endpoints.size(),
              spec.workload.kind ==
                      scenario::WorkloadSpec::Kind::kClosedLoop
                  ? ("closed-loop, " + std::to_string(spec.workload.users) +
                     " users")
                        .c_str()
                  : "open-loop");
  const CampaignResult r =
      RunScenarioCampaign(spec, /*attack_duration=*/Sec(60), seed);
  const double factor = r.base_rt_ms.mean() > 0
                            ? r.att_rt_ms.mean() / r.base_rt_ms.mean()
                            : 0;
  Table table({"Metric", "Baseline", "Under attack"});
  table.AddRow({"avg RT (ms)", Table::Num(r.base_rt_ms.mean()),
                Table::Num(r.att_rt_ms.mean())});
  table.AddRow({"p95 RT (ms)", Table::Num(r.base_rt_ms.Percentile(95)),
                Table::Num(r.att_rt_ms.Percentile(95))});
  table.AddRow({"RT factor", "1.0", Table::Num(factor, 1)});
  table.AddRow({"gateway MB/s", Table::Num(r.base_mbps, 2),
                Table::Num(r.att_mbps, 2)});
  table.AddRow({"CPU " + r.bottleneck_service + " (%)",
                Table::Num(r.base_cpu_pct, 0), Table::Num(r.att_cpu_pct, 0)});
  table.AddRow({"mean P_MB (ms)", "-", Table::Num(r.mean_pmb_ms, 0)});
  table.AddRow({"bots used", "-",
                Table::Int(static_cast<std::int64_t>(r.bots))});
  table.AddRow({"scale actions", "0",
                Table::Int(static_cast<std::int64_t>(
                    r.scale_actions_during_attack))});
  table.AddRow({"attributed IDS alerts", "0",
                Table::Int(static_cast<std::int64_t>(r.attributed_alerts))});
  table.Print(std::cout);
  return 0;
}

void Banner(const std::string& experiment, const std::string& paper_claim) {
  std::printf("==============================================================="
              "=\n%s\n", experiment.c_str());
  std::printf("paper claim: %s\n", paper_claim.c_str());
  std::printf("note: absolute numbers come from the simulated substrate "
              "(DESIGN.md);\nthe reproduced result is the SHAPE of the "
              "comparison.\n");
  std::printf("==============================================================="
              "=\n");
}

}  // namespace grunt::bench
