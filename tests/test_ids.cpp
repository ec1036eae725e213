#include "cloud/ids.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <random>
#include <set>
#include <unordered_map>
#include <vector>

#include "fixtures.h"

namespace grunt::cloud {
namespace {

using grunt::testing::SingleChainApp;

struct Rig {
  sim::Simulation sim;
  microsvc::Application app = SingleChainApp();
  microsvc::Cluster cluster{sim, app, 1};
};

TEST(Ids, FlagsFastConsecutiveRequestsFromOneSession) {
  Rig rig;
  Ids ids(rig.cluster, nullptr, nullptr, {});
  ids.Start();
  // Same client sends two requests 1 s apart (< 3 s threshold).
  rig.sim.At(Sec(1), [&] {
    rig.cluster.Submit(0, microsvc::RequestClass::kAttack, false, 77);
  });
  rig.sim.At(Sec(2), [&] {
    rig.cluster.Submit(0, microsvc::RequestClass::kAttack, false, 77);
  });
  rig.sim.RunUntil(Sec(5));
  EXPECT_EQ(ids.CountAlerts(AlertRule::kInterRequestInterval), 1u);
  EXPECT_EQ(ids.attributed_attack_alerts(), 1u);
}

TEST(Ids, ToleratesHumanPacedSessions) {
  Rig rig;
  Ids ids(rig.cluster, nullptr, nullptr, {});
  ids.Start();
  for (int i = 0; i < 10; ++i) {
    rig.sim.At(Sec(4 * i + 1), [&] {
      rig.cluster.Submit(0, microsvc::RequestClass::kLegit, false, 5);
    });
  }
  rig.sim.RunUntil(Sec(60));
  EXPECT_EQ(ids.CountAlerts(AlertRule::kInterRequestInterval), 0u);
}

TEST(Ids, OneRequestPerBotEvadesTheIntervalRule) {
  // The Grunt bot-farm discipline: every burst request comes from a fresh
  // bot, so no session ever violates the inter-request threshold.
  Rig rig;
  Ids ids(rig.cluster, nullptr, nullptr, {});
  ids.Start();
  for (int i = 0; i < 100; ++i) {
    rig.sim.At(Ms(10 * i + 1000), [&, i] {
      rig.cluster.Submit(0, microsvc::RequestClass::kAttack, true,
                         1000 + static_cast<std::uint64_t>(i));
    });
  }
  rig.sim.RunUntil(Sec(10));
  EXPECT_EQ(ids.CountAlerts(AlertRule::kInterRequestInterval), 0u);
  EXPECT_EQ(ids.CountAlerts(AlertRule::kRateLimit), 0u);
}

TEST(Ids, RateLimitFlagsFloodFromOneIp) {
  Rig rig;
  Ids ids(rig.cluster, nullptr, nullptr, {});
  ids.Start();
  // 250 requests at 10/s: the 101st and the 202nd overflow the budget of
  // 100 per 300 s (the budget resets after each alert).
  for (int i = 0; i < 250; ++i) {
    rig.sim.At(Ms(100 * i + 100), [&] {
      rig.cluster.Submit(0, microsvc::RequestClass::kAttack, true, 9);
    });
  }
  rig.sim.RunUntil(Sec(30));
  EXPECT_EQ(ids.CountAlerts(AlertRule::kRateLimit), 2u);
  EXPECT_EQ(ids.attributed_attack_alerts(), ids.alerts().size());
}

TEST(Ids, IntervalRuleFlagsGapsJustUnderThreeSeconds) {
  Rig rig;
  Ids ids(rig.cluster, nullptr, nullptr, {});
  ids.Start();
  // Client 1's second request comes 1 us before the 3 s minimum interval,
  // client 2's exactly at it.
  for (const SimTime at : {Sec(1), Sec(4) - 1}) {
    rig.sim.At(at, [&] {
      rig.cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
    });
  }
  for (const SimTime at : {Sec(1), Sec(4)}) {
    rig.sim.At(at, [&] {
      rig.cluster.Submit(0, microsvc::RequestClass::kLegit, false, 2);
    });
  }
  rig.sim.RunUntil(Sec(6));
  ASSERT_EQ(ids.alerts().size(), 1u);
  EXPECT_EQ(ids.alerts()[0].rule, AlertRule::kInterRequestInterval);
  EXPECT_EQ(ids.alerts()[0].client_id, 1u);
  EXPECT_EQ(ids.alerts()[0].value, 2999.999);
}

TEST(Ids, RateWindowHoldsExactlyThreeHundredSeconds) {
  Rig rig;
  Ids ids(rig.cluster, nullptr, nullptr, {});
  ids.Start();
  // Both clients send 101 requests: one at 1 s, 99 from 200 s on, 10 ms
  // apart, and the last 1 us before (client 1) or exactly at (client 2)
  // the first one's 300 s expiry. Only client 1 holds 101 requests in one
  // window; client 2's first has expired, leaving it at the budget of 100.
  for (const std::uint64_t client : {1, 2}) {
    const SimTime last = client == 1 ? Sec(301) - 1 : Sec(301);
    std::vector<SimTime> times = {Sec(1)};
    for (int i = 0; i < 99; ++i) times.push_back(Sec(200) + Ms(10 * i));
    times.push_back(last);
    for (const SimTime at : times) {
      rig.sim.At(at, [&rig, client] {
        rig.cluster.Submit(0, microsvc::RequestClass::kLegit, false, client);
      });
    }
  }
  rig.sim.RunUntil(Sec(310));
  ASSERT_EQ(ids.CountAlerts(AlertRule::kRateLimit), 1u);
  for (const Alert& alert : ids.alerts()) {
    if (alert.rule != AlertRule::kRateLimit) continue;
    EXPECT_EQ(alert.client_id, 1u);
    EXPECT_EQ(alert.at, Sec(301) - 1);
    EXPECT_EQ(alert.value, 101.0);
  }
}

TEST(Ids, SessionPacedAtTheIntervalFitsTheRateBudgetExactly) {
  // 3 s apart is never too fast, and it puts 100 requests in every 300 s
  // window: the budget, not over it. The paper's two submit-path rules
  // meet at this pace, so a human-paced session trips neither.
  Rig rig;
  Ids ids(rig.cluster, nullptr, nullptr, {});
  ids.Start();
  for (int i = 0; i < 400; ++i) {
    rig.sim.At(Sec(1 + 3 * i), [&] {
      rig.cluster.Submit(0, microsvc::RequestClass::kLegit, false, 5);
    });
  }
  rig.sim.RunUntil(Sec(1210));
  EXPECT_TRUE(ids.alerts().empty());
}

TEST(Ids, ResourceSaturationRuleFiresOnSustainedSaturation) {
  Rig rig;
  ResourceMonitor monitor(rig.cluster, {Sec(1), "m"});
  Ids ids(rig.cluster, &monitor, nullptr, {});
  monitor.Start();
  ids.Start();
  const auto s1 = *rig.app.FindService("s1");
  // Saturate both cores for 6 s solid.
  for (int c = 0; c < 2; ++c) {
    rig.sim.At(Sec(1), [&, s1] {
      rig.cluster.service(s1).RunCpu(Sec(6), [] {});
    });
  }
  rig.sim.RunUntil(Sec(10));
  EXPECT_GE(ids.CountAlerts(AlertRule::kResourceSaturation), 1u);
}

TEST(Ids, SubSecondSaturationPulsesDoNotTripResourceRule) {
  Rig rig;
  ResourceMonitor monitor(rig.cluster, {Sec(1), "m"});
  Ids ids(rig.cluster, &monitor, nullptr, {});
  monitor.Start();
  ids.Start();
  const auto s1 = *rig.app.FindService("s1");
  for (SimTime t = Sec(1); t < Sec(30); t += Ms(1500)) {
    rig.sim.At(t, [&, s1] {
      for (int c = 0; c < 2; ++c) {
        rig.cluster.service(s1).RunCpu(Ms(450), [] {});
      }
    });
  }
  rig.sim.RunUntil(Sec(30));
  EXPECT_EQ(ids.CountAlerts(AlertRule::kResourceSaturation), 0u);
}

TEST(Ids, DegradationRuleSeesLongRtButHasNoClientAttribution) {
  Rig rig;
  ResponseTimeMonitor rt(rig.cluster, {Sec(1), "rt"});
  Ids ids(rig.cluster, nullptr, &rt, {});
  rt.Start();
  ids.Start();
  // Saturate s1 then send legit requests that will take > 1 s.
  const auto s1 = *rig.app.FindService("s1");
  rig.sim.At(Ms(100), [&] {
    for (int i = 0; i < 600; ++i) {
      rig.cluster.service(s1).RunCpu(Ms(10), [] {});
    }
    for (int i = 0; i < 5; ++i) {
      rig.cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
    }
  });
  rig.sim.RunUntil(Sec(10));
  EXPECT_GE(ids.CountAlerts(AlertRule::kServiceDegradation), 1u);
  for (const auto& alert : ids.alerts()) {
    if (alert.rule == AlertRule::kServiceDegradation) {
      EXPECT_EQ(alert.client_id, 0u);  // no root-cause attribution
    }
  }
  EXPECT_EQ(ids.attributed_attack_alerts(), 0u);
}

TEST(Ids, ContentChecksAlwaysPassOnWellFormedTraffic) {
  Rig rig;
  Ids ids(rig.cluster, nullptr, nullptr, {});
  EXPECT_TRUE(ids.content_checks_passed());
}

TEST(Ids, DescribeRendersEachRule) {
  EXPECT_EQ(Describe({Sec(2), AlertRule::kInterRequestInterval, 77, 1000.5}),
            "[2 s] inter-request-interval: client 77, interval 1000.5 ms");
  EXPECT_EQ(Describe({Ms(1500), AlertRule::kRateLimit, 9, 101}),
            "[1.5 s] rate-limit: client 9, 101 requests in window");
  EXPECT_EQ(Describe({Sec(4), AlertRule::kResourceSaturation, 0, 3}),
            "[4 s] resource-saturation: service 3");
  EXPECT_EQ(Describe({Sec(3), AlertRule::kServiceDegradation, 0, 1234.25}),
            "[3 s] service-degradation: mean legit RT 1234.25 ms");
}

TEST(Ids, AlertValuesCarryTheRuleEvidence) {
  Rig rig;
  Ids ids(rig.cluster, nullptr, nullptr, {});
  ids.Start();
  // 100 requests paced at 3 s fill the rate budget without an alert; a
  // 101st 250 ms after the last trips both submit-path rules at once.
  for (int i = 0; i < 100; ++i) {
    rig.sim.At(Sec(1 + 3 * i), [&] {
      rig.cluster.Submit(0, microsvc::RequestClass::kAttack, false, 5);
    });
  }
  rig.sim.At(Ms(298'250), [&] {
    rig.cluster.Submit(0, microsvc::RequestClass::kAttack, false, 5);
  });
  rig.sim.RunUntil(Sec(299));
  ASSERT_EQ(ids.alerts().size(), 2u);
  EXPECT_EQ(ids.alerts()[0].rule, AlertRule::kInterRequestInterval);
  EXPECT_EQ(ids.alerts()[0].at, Ms(298'250));
  EXPECT_EQ(ids.alerts()[0].client_id, 5u);
  EXPECT_EQ(ids.alerts()[0].value, 250.0);  // interval, ms
  EXPECT_EQ(ids.alerts()[1].rule, AlertRule::kRateLimit);
  EXPECT_EQ(ids.alerts()[1].at, Ms(298'250));
  EXPECT_EQ(ids.alerts()[1].value, 101.0);  // requests in the window
  EXPECT_EQ(ids.CountAlerts(AlertRule::kInterRequestInterval), 1u);
  EXPECT_EQ(ids.CountAlerts(AlertRule::kRateLimit), 1u);
  EXPECT_EQ(ids.CountAlerts(AlertRule::kResourceSaturation), 0u);
  EXPECT_EQ(ids.attributed_attack_alerts(), 2u);
}

TEST(Ids, StoppedIdsIgnoresTraffic) {
  Rig rig;
  Ids ids(rig.cluster, nullptr, nullptr, {});
  ids.Start();
  ids.Stop();
  rig.sim.At(Sec(1), [&] {
    rig.cluster.Submit(0, microsvc::RequestClass::kAttack, false, 7);
    rig.cluster.Submit(0, microsvc::RequestClass::kAttack, false, 7);
  });
  rig.sim.RunUntil(Sec(3));
  EXPECT_TRUE(ids.alerts().empty());
}

TEST(Ids, DestroyedAfterStopLeavesNoDanglingSubscription) {
  Rig rig;
  auto& submits = rig.cluster.telemetry().submit();
  const std::size_t subscribers = submits.subscriber_count();
  {
    Ids ids(rig.cluster, nullptr, nullptr, {});
    ids.Start();
    rig.sim.RunUntil(Ms(500));
    ids.Stop();
  }
  EXPECT_EQ(submits.subscriber_count(), subscribers);
  rig.sim.At(Sec(1), [&] {
    rig.cluster.Submit(0, microsvc::RequestClass::kAttack, false, 7);
  });
  rig.sim.RunUntil(Sec(3));
}

TEST(Ids, DestroyedWhileRunningLeavesNoDanglingTimer) {
  Rig rig;
  ResourceMonitor monitor(rig.cluster, {Sec(1), "m"});
  ResponseTimeMonitor rt(rig.cluster, {Sec(1), "rt"});
  monitor.Start();
  rt.Start();
  const std::size_t subscribers =
      rig.cluster.telemetry().submit().subscriber_count();
  {
    Ids ids(rig.cluster, &monitor, &rt, {});
    ids.Start();
    rig.sim.At(Ms(500), [&] {
      rig.cluster.Submit(0, microsvc::RequestClass::kAttack, false, 7);
    });
    rig.sim.RunUntil(Sec(2));
  }
  EXPECT_EQ(rig.cluster.telemetry().submit().subscriber_count(), subscribers);
  // Neither the submit handler nor the 1 s evaluation timer may reach the
  // destroyed IDS.
  rig.sim.At(Ms(2500), [&] {
    rig.cluster.Submit(0, microsvc::RequestClass::kAttack, false, 7);
  });
  rig.sim.RunUntil(Sec(6));
}

// ---- differential test against the pre-rewrite rules ---------------------

/// The submit-path rules as first written: a hash map of sessions, each
/// owning a deque of its request times inside the rate window (push, expire
/// the front, clear on overflow). Subscribed after the Ids under test, so
/// both see every submit in the same order.
class ReferenceIds {
 public:
  explicit ReferenceIds(microsvc::Cluster& cluster) : cluster_(cluster) {
    sub_ = cluster_.telemetry().submit().Subscribe(
        [this](const telemetry::RequestSubmit& e) {
          if (running_) OnSubmit(e);
        });
  }
  ~ReferenceIds() { cluster_.telemetry().submit().Unsubscribe(sub_); }
  ReferenceIds(const ReferenceIds&) = delete;
  ReferenceIds& operator=(const ReferenceIds&) = delete;

  void set_running(bool running) { running_ = running; }
  const std::vector<Alert>& alerts() const { return alerts_; }
  std::size_t attributed() const { return attributed_; }
  std::size_t CountAlerts(AlertRule rule) const {
    std::size_t n = 0;
    for (const Alert& a : alerts_) n += a.rule == rule;
    return n;
  }

 private:
  struct Session {
    SimTime last_request = 0;
    std::int64_t total_requests = 0;
    bool is_attack = false;
    std::deque<SimTime> window;
  };

  void OnSubmit(const telemetry::RequestSubmit& e) {
    Session& s = sessions_[e.client_id];
    s.is_attack = s.is_attack || e.cls != microsvc::RequestClass::kLegit;
    if (s.total_requests >= Ids::kMinSessionRequests - 1 &&
        s.total_requests > 0 &&
        e.at - s.last_request < Ids::kMinInterRequest) {
      Raise(AlertRule::kInterRequestInterval, e.client_id,
            ToMillis(e.at - s.last_request), s.is_attack);
    }
    s.last_request = e.at;
    ++s.total_requests;
    s.window.push_back(e.at);
    while (!s.window.empty() &&
           s.window.front() <= e.at - Ids::kRateWindow) {
      s.window.pop_front();
    }
    if (static_cast<std::int64_t>(s.window.size()) > Ids::kRateLimit) {
      Raise(AlertRule::kRateLimit, e.client_id,
            static_cast<double>(s.window.size()), s.is_attack);
      s.window.clear();
    }
  }

  void Raise(AlertRule rule, std::uint64_t client_id, double value,
             bool attack_attributed) {
    alerts_.push_back({cluster_.simulation().Now(), rule, client_id, value});
    if (attack_attributed) ++attributed_;
  }

  microsvc::Cluster& cluster_;
  telemetry::SubscriptionId sub_ = 0;
  bool running_ = false;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::vector<Alert> alerts_;
  std::size_t attributed_ = 0;
};

/// One seeded random stream over several 300 s rate windows: 50-200
/// clients (ids include 0, the extremes of uint64 and high-bit-only values,
/// so index probes collide), legit, attack and probe classes, bursts of
/// same-timestamp submits, a few hot clients that overflow the 100-request
/// budget again and again, pauses long enough to expire whole windows, and
/// a mid-stream Stop()/Start() of both detectors. Adds the per-rule alert
/// counts to `totals`.
void RunDifferential(std::uint64_t seed,
                     std::array<std::size_t, kAlertRuleCount>& totals) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  std::mt19937_64 rng(seed);
  auto pick = [&rng](std::uint64_t n) { return rng() % n; };

  const std::size_t n_clients = 50 + pick(151);
  std::set<std::uint64_t> unique = {0, std::numeric_limits<std::uint64_t>::max(),
                                    std::uint64_t{1} << 63};
  while (unique.size() < n_clients) {
    switch (pick(4)) {
      case 0: unique.insert(1'000'000 + pick(400)); break;  // users
      case 1: unique.insert(9'000'000 + pick(400)); break;  // bots
      case 2: unique.insert(pick(64) << 57); break;  // high bits only
      default: unique.insert(rng()); break;
    }
  }
  const std::vector<std::uint64_t> clients(unique.begin(), unique.end());
  std::vector<microsvc::RequestClass> client_class;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const std::uint64_t r = pick(10);
    client_class.push_back(r < 6   ? microsvc::RequestClass::kLegit
                           : r < 9 ? microsvc::RequestClass::kAttack
                                   : microsvc::RequestClass::kProbe);
  }

  sim::Simulation sim;
  const microsvc::Application app = grunt::testing::SingleChainApp();
  microsvc::Cluster cluster(sim, app, seed);
  Ids ids(cluster, nullptr, nullptr, {});
  ReferenceIds ref(cluster);
  ids.Start();
  ref.set_running(true);

  // ~90 ms mean gap: 14k-28k submits span 21-42 min, and the hot clients
  // share 20-50% of them, from a few times the 100-per-300 s budget down
  // to near it, where each verdict turns on which requests have expired.
  const std::size_t n_submits = 14'000 + pick(14'000);
  const std::size_t stop_at = n_submits / 3 + pick(n_submits / 3);
  const std::size_t start_at = stop_at + 1 + pick(2000);
  const std::size_t hot = 1 + pick(5);  // a few chatty clients
  const std::uint64_t hot_tenths = 2 + pick(4);
  SimTime t = Ms(10);
  for (std::size_t i = 0; i < n_submits; ++i) {
    if (pick(10) >= 3) t += static_cast<SimDuration>(pick(Ms(256)));
    if (pick(2000) == 0) t += Sec(100) + static_cast<SimDuration>(pick(Sec(300)));
    if (i == stop_at || i == start_at) {
      const bool resume = (i == start_at);
      sim.At(t, [&, resume] {
        if (resume) {
          ids.Start();
        } else {
          ids.Stop();
        }
        ref.set_running(resume);
      });
    }
    const std::size_t c =
        pick(10) < hot_tenths ? pick(hot) : pick(clients.size());
    microsvc::RequestClass cls = client_class[c];
    if (pick(20) == 0) cls = static_cast<microsvc::RequestClass>(pick(3));
    const std::uint64_t client = clients[c];
    sim.At(t, [&cluster, cls, client] {
      cluster.Submit(0, cls, false, client);
    });
  }
  sim.RunUntil(t + Sec(1));
  ASSERT_GT(t, 3 * Ids::kRateWindow);  // the stream spans several windows

  ASSERT_EQ(ids.alerts().size(), ref.alerts().size());
  for (std::size_t i = 0; i < ids.alerts().size(); ++i) {
    const Alert& got = ids.alerts()[i];
    const Alert& want = ref.alerts()[i];
    ASSERT_TRUE(got.at == want.at && got.rule == want.rule &&
                got.client_id == want.client_id && got.value == want.value)
        << "alert " << i << ": got " << Describe(got) << ", want "
        << Describe(want);
  }
  EXPECT_EQ(ids.attributed_attack_alerts(), ref.attributed());
  for (std::size_t r = 0; r < kAlertRuleCount; ++r) {
    const auto rule = static_cast<AlertRule>(r);
    EXPECT_EQ(ids.CountAlerts(rule), ref.CountAlerts(rule)) << ToString(rule);
    totals[r] += ids.CountAlerts(rule);
  }
}

TEST(Ids, MatchesPerSessionDequeReferenceOnRandomStreams) {
  std::array<std::size_t, kAlertRuleCount> totals{};
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    RunDifferential(seed, totals);
    if (HasFatalFailure()) return;
  }
  // Both submit-path rules fire often: the streams do not agree on silence.
  EXPECT_GT(totals[static_cast<std::size_t>(AlertRule::kInterRequestInterval)],
            1000u);
  EXPECT_GT(totals[static_cast<std::size_t>(AlertRule::kRateLimit)], 1000u);
}

}  // namespace
}  // namespace grunt::cloud
