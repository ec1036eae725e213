#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "attack/target_client.h"
#include "tracing.h"

namespace grunt::perfbench {

/// Benchmark-owned decorator over the attack library's only window onto the
/// target: forwards every call unchanged and opens a span around each Send
/// and each attack-side callback (response callbacks and After work), so
/// the attack layer's self time is "callback time minus nested Send". Used
/// only in traced passes; the simulated result is identical either way.
class TracedTargetClient final : public attack::TargetClient {
 public:
  explicit TracedTargetClient(attack::TargetClient& inner) : inner_(inner) {}

  std::vector<attack::PublicUrl> CrawlUrls() override {
    Span span("attack.crawl");
    return inner_.CrawlUrls();
  }

  void Send(std::int32_t url_id, bool heavy, std::uint64_t bot_id,
            bool attack_traffic, ResponseCallback on_response) override {
    Span span("attack.send");
    if (!on_response) {
      inner_.Send(url_id, heavy, bot_id, attack_traffic, nullptr);
      return;
    }
    inner_.Send(url_id, heavy, bot_id, attack_traffic,
                [this, cb = std::move(on_response)](SimTime sent,
                                                    SimTime done, bool ok) {
                  ++responses_;
                  if (ok) ++ok_responses_;
                  Span cb_span("attack.callback");
                  cb(sent, done, ok);
                });
  }

  SimTime Now() const override { return inner_.Now(); }

  void After(SimDuration delay, std::function<void()> fn) override {
    inner_.After(delay, [fn = std::move(fn)] {
      Span span("attack.callback");
      fn();
    });
  }

  std::uint64_t responses() const { return responses_; }
  std::uint64_t ok_responses() const { return ok_responses_; }

 private:
  attack::TargetClient& inner_;
  std::uint64_t responses_ = 0;
  std::uint64_t ok_responses_ = 0;
};

}  // namespace grunt::perfbench
