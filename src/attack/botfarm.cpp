#include "attack/botfarm.h"

#include <limits>

namespace grunt::attack {

BotFarm::BotFarm(Config cfg) : cfg_(cfg) {}

std::optional<std::uint64_t> BotFarm::Acquire(SimTime now) {
  // Round-robin scan from the cursor so reuse spreads evenly across bots.
  const std::size_t n = last_used_.size();
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t idx = (cursor_ + probe) % n;
    if (now - last_used_[idx] >= cfg_.min_spacing) {
      last_used_[idx] = now;
      cursor_ = (idx + 1) % n;
      ++requests_sent_;
      return kBotIdBase + idx;
    }
  }
  // Everyone is cooling down: recruit a new bot, unless the budget is spent.
  if (cfg_.max_bots > 0 && last_used_.size() >= cfg_.max_bots) {
    return std::nullopt;
  }
  last_used_.push_back(now);
  ++requests_sent_;
  return kBotIdBase + (last_used_.size() - 1);
}

}  // namespace grunt::attack
