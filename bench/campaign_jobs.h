#pragma once

// Registered campaign job kinds (dist/job_registry.h) plus the JSON codecs
// that carry their inputs and results through the CampaignExecutor.
//
// The codecs are the determinism boundary: a CampaignResult serialized here
// and parsed back must reproduce the table benches' printouts bit-for-bit,
// which holds because util/json round-trips every double exactly and the
// Samples populations are carried as full value vectors in order. The
// attack report is carried only as its summary counters
// (bots_used/attack_requests) — the table benches read nothing deeper, and
// the profile/group internals would dwarf the result.
//
// Job kinds registered by RegisterCampaignJobs():
//   socialnetwork_campaign  args {name,users,capacity_scale,replica_scale,
//                                 attack_sec} -> CampaignResult JSON
//   fig11_baseline          args {setting...,url} -> {baseline_ms}
//   fig11_direction         args {setting...,burst,victim,volume}
//                           -> {victim_median_ms,burst_pmb_ms}

#include <cstdint>
#include <string>

#include "dist/campaign_executor.h"
#include "rig.h"
#include "util/json.h"

namespace grunt::bench {

/// Registers every campaign job kind above in JobRegistry::Global().
/// Idempotent; call it before running a bench campaign.
void RegisterCampaignJobs();

json::Value SettingToJson(const CloudSetting& setting);
CloudSetting SettingFromJson(const json::Value& v);

json::Value CampaignResultToJson(const CampaignResult& r);
CampaignResult CampaignResultFromJson(const json::Value& v);

/// uint64 -> fixed-width hex (JSON numbers are doubles; 2^53 is not enough
/// for an FNV-1a hash).
std::string HashToHex(std::uint64_t h);

/// When GRUNT_CAMPAIGN_METRICS_JSON names a path, writes the executor's
/// cumulative per-worker stats (CampaignExecutor::StatsJson) there — the
/// campaign analogue of GRUNT_METRICS_JSON. No-op when unset.
void MaybeExportCampaignStats(const dist::CampaignExecutor& exec);

}  // namespace grunt::bench
