#include "campaign_jobs.h"

#include <cstdio>
#include <mutex>

#include "dist/job_registry.h"

namespace grunt::bench {

namespace {

json::Value SamplesToJson(const Samples& s) {
  json::Array a;
  a.reserve(s.count());
  for (const double v : s.values()) a.push_back(json::Value(v));
  return json::Value(std::move(a));
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

json::Value SocialNetworkCampaignJob(const json::Value& args,
                                     std::uint64_t seed) {
  const CloudSetting setting = SettingFromJson(args);
  const auto attack = Sec(args.At("attack_sec").AsInt64());
  return CampaignResultToJson(
      RunScenarioCampaign(SocialNetworkSpec(setting), attack, seed));
}

}  // namespace

void RegisterCampaignJobs() {
  static std::once_flag once;
  std::call_once(once, [] {
    dist::JobRegistry::Global().Register("socialnetwork_campaign",
                                         SocialNetworkCampaignJob);
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
  // The report goes out as its summary counters only (see campaign_jobs.h).
  o.emplace_back("report_bots_used",
                 static_cast<std::int64_t>(r.report.bots_used));
  o.emplace_back("report_attack_requests",
                 static_cast<std::int64_t>(r.report.attack_requests));
  return json::Value(std::move(o));
}

std::string HashToHex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace grunt::bench
