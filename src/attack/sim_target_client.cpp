#include "attack/sim_target_client.h"

#include <stdexcept>

#include "util/rng.h"

namespace grunt::attack {

SimTargetClient::SimTargetClient(microsvc::Cluster& cluster)
    : SimTargetClient(cluster, Options{}) {}

SimTargetClient::SimTargetClient(microsvc::Cluster& cluster, Options opts)
    : cluster_(cluster), opts_(opts) {
  if (opts_.crawl_coverage <= 0.0 || opts_.crawl_coverage > 1.0) {
    throw std::invalid_argument("SimTargetClient: coverage must be in (0,1]");
  }
}

std::vector<PublicUrl> SimTargetClient::CrawlUrls() {
  std::vector<PublicUrl> urls;
  const auto& app = cluster_.app();
  RngStream rng(opts_.crawl_seed, "crawler." + app.name());
  for (std::size_t i = 0; i < app.request_type_count(); ++i) {
    const auto& spec = app.request_type(static_cast<std::int32_t>(i));
    // Imperfect crawling (paper Limitation #3): some dynamic endpoints need
    // input parameters the crawler cannot synthesize. The draw is consumed
    // for every URL so the discovered subset is stable per seed.
    const bool discovered = rng.NextBool(opts_.crawl_coverage);
    if (!spec.is_static && !discovered && opts_.crawl_coverage < 1.0) {
      continue;
    }
    PublicUrl url;
    url.url_id = static_cast<std::int32_t>(i);
    url.path = "/" + spec.name;
    url.looks_static = spec.is_static;
    urls.push_back(std::move(url));
  }
  // A crawl that found nothing dynamic retries with the trivial entry page
  // (never realistic to find zero URLs on a public site).
  if (urls.empty() && app.request_type_count() > 0) {
    PublicUrl url;
    url.url_id = 0;
    url.path = "/" + app.request_type(0).name;
    url.looks_static = app.request_type(0).is_static;
    urls.push_back(std::move(url));
  }
  return urls;
}

void SimTargetClient::Send(std::int32_t url_id, bool heavy,
                           std::uint64_t bot_id, bool attack_traffic,
                           ResponseCallback on_response) {
  ++requests_sent_;
  const auto cls = attack_traffic ? microsvc::RequestClass::kAttack
                                  : microsvc::RequestClass::kProbe;
  microsvc::Cluster::CompletionCallback on_complete;
  if (on_response) {
    on_complete = [cb = std::move(on_response)](
                      const microsvc::CompletionRecord& rec) {
      cb(rec.start, rec.end, rec.outcome == microsvc::Outcome::kOk);
    };
  }
  cluster_.Submit(url_id, cls, heavy, bot_id, std::move(on_complete));
}

SimTime SimTargetClient::Now() const {
  return cluster_.simulation().Now();
}

void SimTargetClient::After(SimDuration delay, std::function<void()> fn) {
  cluster_.simulation().After(delay, std::move(fn));
}

}  // namespace grunt::attack
