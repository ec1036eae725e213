#include "attack/sim_target_client.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fixtures.h"
#include "microsvc/cluster.h"

namespace grunt::attack {
namespace {

struct Rig {
  sim::Simulation sim;
  microsvc::Application app = grunt::testing::SingleChainApp();
  microsvc::Cluster cluster{sim, app, 1};
  SimTargetClient client{cluster};
  grunt::testing::CompletionLog log{cluster};
};

TEST(SimTargetClient, CrawlExposesEveryUrlWithStaticFlag) {
  sim::Simulation sim;
  microsvc::Application::Builder b;
  const auto s = b.AddService(grunt::testing::Svc("s", 4, 1));
  b.AddRequestType(grunt::testing::Type("dyn", {{s, Us(100), 0}}));
  microsvc::RequestTypeSpec st;
  st.name = "logo.png";
  st.is_static = true;
  b.AddRequestType(st);
  const auto app = std::move(b).Build();
  microsvc::Cluster cluster(sim, app, 1);
  SimTargetClient client(cluster);
  const auto urls = client.CrawlUrls();
  ASSERT_EQ(urls.size(), 2u);
  EXPECT_EQ(urls[0].path, "/dyn");
  EXPECT_FALSE(urls[0].looks_static);
  EXPECT_EQ(urls[1].path, "/logo.png");
  EXPECT_TRUE(urls[1].looks_static);
}

TEST(SimTargetClient, SendAttributesClassAndReportsTimestamps) {
  Rig rig;
  SimTime sent = -1, completed = -1;
  bool ok = false;
  rig.client.Send(0, /*heavy=*/false, /*bot_id=*/777, /*attack_traffic=*/true,
                  [&](SimTime s, SimTime e, bool o) {
                    sent = s;
                    completed = e;
                    ok = o;
                  });
  rig.sim.RunAll();
  EXPECT_EQ(sent, 0);
  EXPECT_EQ(completed, Ms(9) + Us(1200));
  EXPECT_TRUE(ok);
  ASSERT_EQ(rig.log.records().size(), 1u);
  EXPECT_EQ(rig.log.records()[0].cls, microsvc::RequestClass::kAttack);
  EXPECT_EQ(rig.log.records()[0].client_id, 777u);
  EXPECT_EQ(rig.client.requests_sent(), 1u);
}

TEST(SimTargetClient, ProbeTrafficTaggedAsProbe) {
  Rig rig;
  rig.client.Send(0, false, 1, /*attack_traffic=*/false, nullptr);
  rig.sim.RunAll();
  ASSERT_EQ(rig.log.records().size(), 1u);
  EXPECT_EQ(rig.log.records()[0].cls, microsvc::RequestClass::kProbe);
}

TEST(SimTargetClient, TwoClientsOnOneClusterEachGetOnlyTheirOwnResponses) {
  // The shape bench_ablation_discovery uses: two attackers against one
  // target, sends interleaved in time.
  Rig rig;
  SimTargetClient other(rig.cluster);
  std::vector<SimTime> mine, theirs;
  for (int i = 0; i < 5; ++i) {
    SimTargetClient* sender = i % 2 == 0 ? &rig.client : &other;
    std::vector<SimTime>* inbox = i % 2 == 0 ? &mine : &theirs;
    rig.sim.At(Ms(3) * i, [sender, inbox, i] {
      sender->Send(0, false, static_cast<std::uint64_t>(i), true,
                   [inbox](SimTime sent, SimTime, bool) {
                     inbox->push_back(sent);
                   });
    });
  }
  rig.sim.RunAll();
  EXPECT_EQ(mine, (std::vector<SimTime>{0, Ms(6), Ms(12)}));
  EXPECT_EQ(theirs, (std::vector<SimTime>{Ms(3), Ms(9)}));
  EXPECT_EQ(rig.client.requests_sent(), 3u);
  EXPECT_EQ(other.requests_sent(), 2u);
}

TEST(SimTargetClient, LaterSubscriberSeesCompletionBeforeResponseCallback) {
  // DESIGN §8 rule 3 covers the attacker too: the response is the
  // request's own continuation, so a completion subscriber registered after
  // the client was built still observes the record first.
  Rig rig;
  std::vector<std::string> order;
  rig.cluster.telemetry().completion().Subscribe(
      [&](const microsvc::CompletionRecord&) { order.push_back("bus"); });
  rig.client.Send(0, false, 1, true,
                  [&](SimTime, SimTime, bool) { order.push_back("client"); });
  rig.sim.RunAll();
  EXPECT_EQ(order, (std::vector<std::string>{"bus", "client"}));
}

TEST(SimTargetClient, ClockAndSchedulingMirrorSimulation) {
  Rig rig;
  EXPECT_EQ(rig.client.Now(), 0);
  bool fired = false;
  rig.client.After(Ms(250), [&] {
    fired = true;
    EXPECT_EQ(rig.client.Now(), Ms(250));
  });
  rig.sim.RunAll();
  EXPECT_TRUE(fired);
}

TEST(SimTargetClient, PartialCrawlCoverageIsDeterministicSubset) {
  sim::Simulation sim;
  microsvc::Application::Builder b;
  const auto s0 = b.AddService(grunt::testing::Svc("s", 16, 2));
  for (int i = 0; i < 20; ++i) {
    b.AddRequestType(grunt::testing::Type("t" + std::to_string(i),
                                          {{s0, Us(500), 0}}));
  }
  const auto app = std::move(b).Build();
  microsvc::Cluster cluster(sim, app, 1);
  SimTargetClient half(cluster, {0.5, 7});
  const auto once = half.CrawlUrls();
  const auto twice = half.CrawlUrls();
  ASSERT_EQ(once.size(), twice.size());
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(once[i].url_id, twice[i].url_id);
  }
  // Roughly half discovered, never zero, never all (with 20 URLs and p=.5).
  EXPECT_GE(once.size(), 4u);
  EXPECT_LE(once.size(), 16u);
  // Different seed -> different subset.
  SimTargetClient other(cluster, {0.5, 8});
  const auto other_urls = other.CrawlUrls();
  bool differs = other_urls.size() != once.size();
  for (std::size_t i = 0; !differs && i < once.size(); ++i) {
    differs = once[i].url_id != other_urls[i].url_id;
  }
  EXPECT_TRUE(differs);
  // Full coverage finds everything; invalid coverage throws.
  SimTargetClient full(cluster);
  EXPECT_EQ(full.CrawlUrls().size(), 20u);
  EXPECT_THROW(SimTargetClient(cluster, {0.0, 1}), std::invalid_argument);
  EXPECT_THROW(SimTargetClient(cluster, {1.5, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace grunt::attack
