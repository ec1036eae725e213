#include "scenario/deployment.h"

#include <memory>
#include <stdexcept>
#include <string>

#include "scenario/builder.h"
#include "scenario/loader.h"

namespace grunt::scenario {

ScenarioRig::ScenarioRig(const ScenarioSpec& spec, std::uint64_t seed)
    : app_(BuildApplication(spec.topology)) {
  cluster_ = std::make_unique<microsvc::Cluster>(sim_, app_, seed);

  const auto& wl = spec.workload;
  if (wl.kind == WorkloadSpec::Kind::kClosedLoop) {
    workload::ClosedLoopWorkload::Config cfg;
    cfg.users = wl.users;
    cfg.think_mean = wl.think_mean;
    cfg.navigator = BuildNavigator(app_, wl);
    closed_users_ =
        std::make_unique<workload::ClosedLoopWorkload>(*cluster_, cfg, seed);
    closed_users_->Start();
  } else {
    workload::OpenLoopSource::Config cfg;
    cfg.rate = wl.rate;
    cfg.mix = BuildRequestMix(app_, wl);
    open_source_ =
        std::make_unique<workload::OpenLoopSource>(*cluster_, cfg, seed);
    open_source_->Start();
  }

  const auto& ops = spec.operators;
  cloudwatch_ = std::make_unique<cloud::ResourceMonitor>(
      *cluster_,
      cloud::ResourceMonitor::Config{kCoarseMonitorPeriod, "cloudwatch"});
  rt_ = std::make_unique<cloud::ResponseTimeMonitor>(
      *cluster_,
      cloud::ResponseTimeMonitor::Config{kCoarseMonitorPeriod, "rt"});
  if (ops.autoscaler_enabled) {
    scaler_ = std::make_unique<cloud::AutoScaler>(*cluster_, *cloudwatch_,
                                                  ops.autoscaler);
  }
  if (ops.ids_enabled) {
    ids_ = std::make_unique<cloud::Ids>(*cluster_, cloudwatch_.get(),
                                        rt_.get());
  }
  cloudwatch_->Start();
  rt_->Start();
  if (scaler_) scaler_->Start();
  if (ids_) ids_->Start();
  client_ = std::make_unique<attack::SimTargetClient>(*cluster_);
}

void ScenarioRig::RunUntil(SimTime until) { sim_.RunUntil(until); }

void RunUntilDone(sim::Simulation& sim, const bool& done, SimDuration step,
                  const std::string& what) {
  while (!done && sim.Now() < kRunCap) sim.RunUntil(sim.Now() + step);
  if (!done) {
    throw std::runtime_error(what + " did not finish within the " +
                             std::to_string(kRunCap / kSecond) +
                             " s simulated cap");
  }
}

SimTime RunGrunt(sim::Simulation& sim, attack::GruntAttack& grunt,
                 SimDuration attack_duration,
                 const attack::ProfileResult* profile,
                 const std::string& what) {
  // Shared with the callbacks rather than on this frame: they stay on
  // `grunt` after a throw at the cap.
  struct Progress {
    bool done = false;
    SimTime attack_start = 0;
  };
  const auto progress = std::make_shared<Progress>();
  grunt.OnAttackPhaseStart(
      [progress](SimTime at) { progress->attack_start = at; });
  auto on_done = [progress](const attack::GruntReport&) {
    progress->done = true;
  };
  if (profile != nullptr) {
    grunt.RunWithProfile(*profile, attack_duration, on_done);
  } else {
    grunt.Run(attack_duration, on_done);
  }
  RunUntilDone(sim, progress->done, Sec(10), what);
  return progress->attack_start;
}

microsvc::ServiceId ScenarioRig::HottestBackend(SimTime from,
                                                SimTime to) const {
  microsvc::ServiceId best = 0;
  double best_util = -1;
  for (std::size_t i = 0; i < cluster_->service_count(); ++i) {
    const auto sid = static_cast<microsvc::ServiceId>(i);
    if (app_.service(sid).threads_per_replica >= kGatewayThreads) {
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

std::vector<double> ScenarioRates(const microsvc::Application& app,
                                  const WorkloadSpec& workload) {
  const auto mix = BuildRequestMix(app, workload);
  double total_w = 0;
  for (double w : mix.weights) total_w += w;
  const double total_rate =
      workload.kind == WorkloadSpec::Kind::kClosedLoop
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

ProfileScore ScoreProfile(const attack::ProfileResult& result,
                          const trace::GroundTruth& truth) {
  ProfileScore s;
  for (const auto& ev : result.evidence) {
    const trace::DepType truth_type = truth.Classify(ev.a, ev.b);
    const bool t = trace::IsDependent(truth_type);
    const bool i = trace::IsDependent(ev.inferred);
    s.tp += (t && i);
    s.fp += (!t && i);
    s.fn += (t && !i);
    s.tn += (!t && !i);
    s.kind_match += (t && i && trace::SameKind(truth_type, ev.inferred));
  }
  return s;
}

}  // namespace grunt::scenario
