#include "campaign_jobs.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "attack/burst.h"
#include "dist/job_registry.h"
#include "fixtures_path.h"
#include "util/rng.h"

namespace grunt::bench {

namespace {

json::Value SamplesToJson(const Samples& s) {
  json::Array a;
  a.reserve(s.count());
  for (const double v : s.values()) a.push_back(json::Value(v));
  return json::Value(std::move(a));
}

Samples SamplesFromJson(const json::Value& v) {
  Samples s;
  for (const json::Value& x : v.AsArray()) s.Add(x.AsDouble());
  return s;
}

// ---- registered kinds ----------------------------------------------------

json::Value SocialNetworkCampaignJob(const json::Value& args,
                                     std::uint64_t seed) {
  const CloudSetting setting = SettingFromJson(args);
  const auto attack = Sec(args.At("attack_sec").AsInt64());
  return CampaignResultToJson(
      RunScenarioCampaign(SocialNetworkSpec(setting), attack, seed));
}

/// Fig 11 baseline probe on a fresh deployment (bench_fig11_pairwise).
json::Value Fig11BaselineJob(const json::Value& args, std::uint64_t seed) {
  const CloudSetting setting = SettingFromJson(args);
  ScenarioRig rig(SocialNetworkSpec(setting), seed);
  const auto url = rig.app().FindRequestType(args.At("url").AsString());
  if (!url) {
    throw json::Error("fig11_baseline: unknown request type \"" +
                      args.At("url").AsString() + "\"");
  }
  rig.RunUntil(Sec(15));
  attack::BotFarm bots({});
  double baseline = 0;
  bool done = false;
  attack::ProbeSender::Send(rig.client(), bots, *url, 10, Ms(300),
                            [&](attack::BurstObservation obs) {
                              baseline = obs.MedianRtMs();
                              done = true;
                            });
  while (!done && rig.sim().Now() < Sec(120)) {
    rig.sim().RunUntil(rig.sim().Now() + Sec(1));
  }
  json::Object out;
  out.emplace_back("baseline_ms", baseline);
  return json::Value(std::move(out));
}

/// One direction of one pairwise test at one volume, on a fresh deployment
/// (fresh state isolates the volumes from each other).
json::Value Fig11DirectionJob(const json::Value& args, std::uint64_t seed) {
  const CloudSetting setting = SettingFromJson(args);
  ScenarioRig rig(SocialNetworkSpec(setting), seed);
  const auto burst_url =
      rig.app().FindRequestType(args.At("burst").AsString());
  const auto victim_url =
      rig.app().FindRequestType(args.At("victim").AsString());
  if (!burst_url || !victim_url) {
    throw json::Error("fig11_direction: unknown request type");
  }
  const auto volume =
      static_cast<std::int32_t>(args.At("volume").AsInt64());
  rig.RunUntil(Sec(15));
  attack::BotFarm bots({});
  double victim_median_ms = 0, burst_pmb_ms = 0;
  bool burst_done = false, probes_done = false;
  const double rate = 800.0;
  attack::BurstSender::Send(
      rig.client(), bots, *burst_url, /*heavy=*/true, rate, volume,
      /*attack_traffic=*/false, [&](attack::BurstObservation obs) {
        burst_pmb_ms = obs.EstimatePmbMs();
        burst_done = true;
      });
  const auto first_probe =
      static_cast<SimDuration>(volume / rate * 0.5 * 1e6);
  rig.sim().After(first_probe, [&] {
    attack::ProbeSender::Send(rig.client(), bots, *victim_url, 5, Ms(30),
                              [&](attack::BurstObservation obs) {
                                victim_median_ms = obs.MedianRtMs();
                                probes_done = true;
                              });
  });
  while ((!burst_done || !probes_done) && rig.sim().Now() < Sec(120)) {
    rig.sim().RunUntil(rig.sim().Now() + Sec(1));
  }
  json::Object out;
  out.emplace_back("victim_median_ms", victim_median_ms);
  out.emplace_back("burst_pmb_ms", burst_pmb_ms);
  return json::Value(std::move(out));
}

}  // namespace

std::uint64_t MiniCampaignHash(std::uint64_t job) {
  const auto app = bench_fixtures::SingleChainApp();
  sim::Simulation sim;
  microsvc::Cluster cluster(sim, app, 1);
  RngStream arrivals(job + 1, "bench.campaign");
  SimTime t = 0;
  for (int i = 0; i < 20000; ++i) {
    t += arrivals.NextInt(Us(50), Us(500));
    sim.At(t, [&cluster, i] {
      cluster.Submit(0, microsvc::RequestClass::kLegit, i % 7 == 0, 1);
    });
  }
  sim.RunAll();
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  mix(cluster.completed_count());
  mix(static_cast<std::uint64_t>(sim.Now()));
  mix(sim.events_fired());
  return h;
}

void RegisterCampaignJobs() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto& reg = dist::JobRegistry::Global();
    reg.Register("socialnetwork_campaign", SocialNetworkCampaignJob);
    reg.Register("fig11_baseline", Fig11BaselineJob);
    reg.Register("fig11_direction", Fig11DirectionJob);
  });
}

json::Value SettingToJson(const CloudSetting& setting) {
  json::Object o;
  o.emplace_back("name", setting.name);
  o.emplace_back("users", static_cast<std::int64_t>(setting.users));
  o.emplace_back("capacity_scale", setting.capacity_scale);
  o.emplace_back("replica_scale",
                 static_cast<std::int64_t>(setting.replica_scale));
  return json::Value(std::move(o));
}

CloudSetting SettingFromJson(const json::Value& v) {
  CloudSetting s;
  s.name = v.At("name").AsString();
  s.users = static_cast<std::int32_t>(v.At("users").AsInt64());
  s.capacity_scale = v.At("capacity_scale").AsDouble();
  s.replica_scale =
      static_cast<std::int32_t>(v.At("replica_scale").AsInt64());
  return s;
}

json::Value CampaignResultToJson(const CampaignResult& r) {
  json::Object o;
  o.emplace_back("base_rt_ms", SamplesToJson(r.base_rt_ms));
  o.emplace_back("att_rt_ms", SamplesToJson(r.att_rt_ms));
  o.emplace_back("base_mbps", r.base_mbps);
  o.emplace_back("att_mbps", r.att_mbps);
  o.emplace_back("base_cpu_pct", r.base_cpu_pct);
  o.emplace_back("att_cpu_pct", r.att_cpu_pct);
  o.emplace_back("base_goodput", r.base_goodput);
  o.emplace_back("att_goodput", r.att_goodput);
  o.emplace_back("base_error_rate", r.base_error_rate);
  o.emplace_back("att_error_rate", r.att_error_rate);
  o.emplace_back("bulkhead_rejections", r.bulkhead_rejections);
  o.emplace_back("limiter_rejections", r.limiter_rejections);
  o.emplace_back("deadline_sheds", r.deadline_sheds);
  {
    json::Array a;
    for (const std::uint64_t c : r.legit_outcomes) {
      a.push_back(json::Value(static_cast<std::int64_t>(c)));
    }
    o.emplace_back("legit_outcomes", json::Value(std::move(a)));
  }
  o.emplace_back("bottleneck_service", r.bottleneck_service);
  o.emplace_back("bots", static_cast<std::int64_t>(r.bots));
  o.emplace_back("mean_pmb_ms", r.mean_pmb_ms);
  o.emplace_back("scale_actions_during_attack",
                 static_cast<std::int64_t>(r.scale_actions_during_attack));
  o.emplace_back("attributed_alerts",
                 static_cast<std::int64_t>(r.attributed_alerts));
  o.emplace_back("attack_start", static_cast<std::int64_t>(r.attack_start));
  o.emplace_back("attack_end", static_cast<std::int64_t>(r.attack_end));
  // The report crosses the wire as its summary counters only; the paper
  // tables read nothing deeper (see campaign_jobs.h).
  o.emplace_back("report_bots_used",
                 static_cast<std::int64_t>(r.report.bots_used));
  o.emplace_back("report_attack_requests",
                 static_cast<std::int64_t>(r.report.attack_requests));
  return json::Value(std::move(o));
}

CampaignResult CampaignResultFromJson(const json::Value& v) {
  CampaignResult r;
  r.base_rt_ms = SamplesFromJson(v.At("base_rt_ms"));
  r.att_rt_ms = SamplesFromJson(v.At("att_rt_ms"));
  r.base_mbps = v.At("base_mbps").AsDouble();
  r.att_mbps = v.At("att_mbps").AsDouble();
  r.base_cpu_pct = v.At("base_cpu_pct").AsDouble();
  r.att_cpu_pct = v.At("att_cpu_pct").AsDouble();
  r.base_goodput = v.At("base_goodput").AsDouble();
  r.att_goodput = v.At("att_goodput").AsDouble();
  r.base_error_rate = v.At("base_error_rate").AsDouble();
  r.att_error_rate = v.At("att_error_rate").AsDouble();
  r.bulkhead_rejections = v.At("bulkhead_rejections").AsInt64();
  r.limiter_rejections = v.At("limiter_rejections").AsInt64();
  r.deadline_sheds = v.At("deadline_sheds").AsInt64();
  {
    const json::Array& a = v.At("legit_outcomes").AsArray();
    if (a.size() != r.legit_outcomes.size()) {
      throw json::Error("campaign result: legit_outcomes arity mismatch");
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      r.legit_outcomes[i] = static_cast<std::uint64_t>(a[i].AsInt64());
    }
  }
  r.bottleneck_service = v.At("bottleneck_service").AsString();
  r.bots = static_cast<std::size_t>(v.At("bots").AsInt64());
  r.mean_pmb_ms = v.At("mean_pmb_ms").AsDouble();
  r.scale_actions_during_attack = static_cast<std::size_t>(
      v.At("scale_actions_during_attack").AsInt64());
  r.attributed_alerts =
      static_cast<std::size_t>(v.At("attributed_alerts").AsInt64());
  r.attack_start = v.At("attack_start").AsInt64();
  r.attack_end = v.At("attack_end").AsInt64();
  r.report.bots_used =
      static_cast<std::size_t>(v.At("report_bots_used").AsInt64());
  r.report.attack_requests =
      static_cast<std::uint64_t>(v.At("report_attack_requests").AsInt64());
  return r;
}

std::string HashToHex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

void MaybeExportCampaignStats(const dist::CampaignExecutor& exec) {
  const char* env = std::getenv("GRUNT_CAMPAIGN_METRICS_JSON");
  if (env == nullptr || env[0] == '\0') return;
  try {
    json::WriteFile(env, exec.StatsJson());
  } catch (const json::Error& e) {
    std::fprintf(stderr, "GRUNT_CAMPAIGN_METRICS_JSON: %s\n", e.what());
  }
}

}  // namespace grunt::bench
