#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/time_types.h"

namespace grunt::attack {

/// Allocates bot identities (source IPs / sessions) so that no single bot
/// ever violates the rate-based IDS rules: each bot sends at most one
/// request per burst and keeps its personal inter-request spacing above the
/// behavioral threshold (paper Sec V-B: "each virtual bot only sends one
/// request in a burst, and we tune the interval of requests sent per bot").
///
/// The farm grows on demand; its peak size is the "Bot (#)" column of
/// Table III.
class BotFarm {
 public:
  struct Config {
    /// Minimum spacing between two requests from the same bot. Attackers
    /// estimate the IDS threshold beforehand and add a safety margin.
    SimDuration min_spacing = Ms(3500);
    /// Attacker budget: recruitment stops at this farm size (0 = unlimited).
    /// With every bot cooling down at the cap, Acquire() fails and the
    /// request simply cannot be sent — the knob that makes "equal attacker
    /// cost" comparisons possible (Table III reports the footprint).
    std::size_t max_bots = 0;
  };

  /// Bot n's id (its source IP / session) is kBotIdBase + n, above the
  /// workload generators' default client-id ranges.
  static constexpr std::uint64_t kBotIdBase = 9'000'000;

  explicit BotFarm(Config cfg);

  /// Returns a bot id usable at time `now` without tripping spacing rules,
  /// recruiting a new bot when every existing one is still cooling down.
  /// nullopt when the budget cap is reached and every bot is still cooling.
  std::optional<std::uint64_t> Acquire(SimTime now);

  /// Bots recruited so far (the attack's reported footprint).
  std::size_t bot_count() const { return last_used_.size(); }
  std::uint64_t requests_sent() const { return requests_sent_; }

 private:
  Config cfg_;
  std::vector<SimTime> last_used_;
  std::size_t cursor_ = 0;  ///< round-robin start position
  std::uint64_t requests_sent_ = 0;
};

}  // namespace grunt::attack
