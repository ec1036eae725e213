#pragma once

// The Table I campaign as a registered job kind (dist/job_registry.h) and
// the JSON codec of its result. No paper bench uses either; they hand typed
// cells to util::ParallelRunner. perfbench compiles this file for its
// campaign_social digest, an FNV-1a over CampaignResultToJson, and for its
// seed-8000 cross-check, which runs the registered job and compares its
// JSON byte for byte with perfbench's own campaign. Nothing parses a result
// back.
//
// util/json writes every double exactly and Samples populations go out as
// full value vectors in order, so the digest moves whenever a printed
// number could. The attack report goes out only as its summary counters
// (bots_used/attack_requests); the profile/group internals would dwarf the
// result.
//
// Job kind registered by RegisterCampaignJobs():
//   socialnetwork_campaign  args {name,users,capacity_scale,replica_scale,
//                                 attack_sec} -> CampaignResult JSON

#include <cstdint>
#include <string>

#include "rig.h"
#include "util/json.h"

namespace grunt::bench {

/// Registers the job kind above in JobRegistry::Global(). Idempotent.
void RegisterCampaignJobs();

json::Value SettingToJson(const CloudSetting& setting);

json::Value CampaignResultToJson(const CampaignResult& r);

/// uint64 -> fixed-width hex (JSON numbers are doubles; 2^53 is not enough
/// for an FNV-1a hash).
std::string HashToHex(std::uint64_t h);

}  // namespace grunt::bench
