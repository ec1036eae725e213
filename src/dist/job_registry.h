#pragma once

// Named campaign jobs. A job kind is a pure function from (JSON args, seed)
// to a JSON result, so a campaign cell is reproducible from its description
// alone. Determinism rule: a kind must derive all randomness from `seed` and
// all configuration from `args`, so every worker count produces
// byte-identical results.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/json.h"

namespace grunt::dist {

using JobFn =
    std::function<json::Value(const json::Value& args, std::uint64_t seed)>;

class JobRegistry {
 public:
  /// The process-wide registry the executor runs against. Benches populate
  /// it at startup (RegisterCampaignJobs).
  static JobRegistry& Global();

  /// Registers `kind`; re-registering an existing kind throws
  /// json::Error (two different functions behind one name would silently
  /// break the determinism contract).
  void Register(const std::string& kind, JobFn fn);

  /// nullptr when unknown.
  const JobFn* Find(const std::string& kind) const;

 private:
  std::vector<std::pair<std::string, JobFn>> entries_;
};

/// Executes `kind` from the global registry; throws json::Error naming the
/// kind when it was never registered.
json::Value RunRegisteredJob(const std::string& kind,
                             const json::Value& args, std::uint64_t seed);

}  // namespace grunt::dist
