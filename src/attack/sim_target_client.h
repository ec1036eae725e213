#pragma once

#include "attack/target_client.h"
#include "microsvc/cluster.h"

namespace grunt::attack {

/// Binds the blackbox TargetClient interface to the simulated cluster. The
/// adapter exposes exactly what a real attacker would have: the URL catalog
/// (request-type names) and end-to-end response times. Each response is the
/// request's own Cluster::Submit continuation, the same path the simulated
/// users take.
class SimTargetClient : public TargetClient {
 public:
  struct Options {
    /// Fraction of the target's dynamic URLs the crawler discovers. The
    /// paper's Limitation #3: requests needing input parameters the crawler
    /// cannot guess "may leave some critical paths undiscovered". 1.0 =
    /// perfect crawl. The subset is deterministic per seed.
    double crawl_coverage = 1.0;
    std::uint64_t crawl_seed = 1;
  };

  explicit SimTargetClient(microsvc::Cluster& cluster);
  SimTargetClient(microsvc::Cluster& cluster, Options opts);

  SimTargetClient(const SimTargetClient&) = delete;
  SimTargetClient& operator=(const SimTargetClient&) = delete;

  std::vector<PublicUrl> CrawlUrls() override;
  void Send(std::int32_t url_id, bool heavy, std::uint64_t bot_id,
            bool attack_traffic, ResponseCallback on_response) override;
  SimTime Now() const override;
  void After(SimDuration delay, std::function<void()> fn) override;

  std::uint64_t requests_sent() const { return requests_sent_; }

 private:
  microsvc::Cluster& cluster_;
  Options opts_;
  std::uint64_t requests_sent_ = 0;
};

}  // namespace grunt::attack
