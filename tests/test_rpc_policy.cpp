// Client-side RPC fault tolerance: timeouts fire at the configured instant,
// the retry backoff sequence is exact, end-to-end deadlines truncate every
// downstream attempt's budget, and whatever happens, every submitted request
// reaches exactly one terminal outcome.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fixtures.h"
#include "microsvc/cluster.h"

namespace grunt::microsvc {
namespace {

using grunt::testing::Svc;
using grunt::testing::Type;

/// One service, one hop, deterministic `demand`, optional policy/deadline.
Application OneHopApp(SimDuration demand, RpcPolicy policy,
                      SimDuration deadline = 0, std::int32_t threads = 8,
                      std::int32_t max_queue = 0) {
  Application::Builder b;
  b.SetName("one-hop").SetServiceTimeDist(ServiceTimeDist::kDeterministic)
      .SetNetLatency(Us(200));
  auto spec = Svc("s", threads, threads);
  spec.max_queue_per_replica = max_queue;
  const ServiceId s = b.AddService(spec);
  auto t = Type("t", {{s, demand, 0}});
  t.hops[0].rpc = policy;
  t.deadline = deadline;
  b.AddRequestType(t);
  return std::move(b).Build();
}

TEST(RpcPolicy, TimeoutFiresAtExactlyTheConfiguredInstant) {
  // Demand far beyond the timeout: the client gives up at t0 + timeout.
  RpcPolicy p;
  p.timeout = Ms(50);
  const Application app = OneHopApp(Sec(1), p);
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  CompletionRecord rec;
  cluster.Submit(0, RequestClass::kLegit, false, 1,
                 [&](const CompletionRecord& r) { rec = r; });
  sim.RunAll();
  EXPECT_EQ(rec.outcome, Outcome::kTimeout);
  EXPECT_EQ(rec.end, Ms(50));  // armed at submit; no network grace
  EXPECT_EQ(rec.retries, 0);
  EXPECT_EQ(cluster.outcome_count(Outcome::kTimeout), 1u);
  // The orphan attempt still drained its CPU burst and released its slot.
  EXPECT_EQ(cluster.service(0).completed_bursts(), 1);
  EXPECT_EQ(cluster.service(0).slots_in_use(), 0);
}

TEST(RpcPolicy, BackoffSequenceIsExact) {
  // timeout 50ms, 3 retries, base 10ms, x2, no jitter:
  // attempts at 0 / 60 / 130 / 220 ms; terminal timeout at 220 + 50 = 270.
  RpcPolicy p;
  p.timeout = Ms(50);
  p.max_retries = 3;
  p.backoff_base = Ms(10);
  p.backoff_multiplier = 2.0;
  p.jitter = 0.0;
  const Application app = OneHopApp(Sec(10), p);
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  CompletionRecord rec;
  cluster.Submit(0, RequestClass::kLegit, false, 1,
                 [&](const CompletionRecord& r) { rec = r; });
  sim.RunUntil(Sec(1));
  EXPECT_EQ(rec.outcome, Outcome::kTimeout);
  EXPECT_EQ(rec.retries, 3);
  EXPECT_EQ(rec.end, Ms(270));
}

TEST(RpcPolicy, RetryAfterTransientBlockingSucceeds) {
  // A 100 ms blocker holds the single slot; the 1 ms request times out
  // twice while queued and succeeds on the third attempt — but the two
  // timed-out attempts stay in the queue as orphans and burn CPU first
  // (retry amplification, measured at the burst counter).
  Application::Builder b;
  b.SetName("flaky").SetServiceTimeDist(ServiceTimeDist::kDeterministic)
      .SetNetLatency(Us(200));
  const ServiceId s = b.AddService(Svc("s", 1, 1));
  b.AddRequestType(Type("block", {{s, Ms(100), 0}}));
  RpcPolicy p;
  p.timeout = Ms(30);
  p.max_retries = 5;
  p.backoff_base = Ms(10);
  p.backoff_multiplier = 2.0;
  auto fast = Type("fast", {{s, Ms(1), 0}});
  fast.hops[0].rpc = p;
  b.AddRequestType(fast);
  const Application app = std::move(b).Build();

  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  cluster.Submit(0, RequestClass::kAttack, false, 7);
  CompletionRecord rec;
  cluster.Submit(1, RequestClass::kLegit, false, 1,
                 [&](const CompletionRecord& r) { rec = r; });
  sim.RunAll();
  EXPECT_EQ(rec.outcome, Outcome::kOk);
  EXPECT_EQ(rec.retries, 2);
  // Attempts arrive at 0.2 / 40.2 / 90.2 ms and queue FIFO behind the
  // blocker (done at 100.2). Orphans run first: 101.2, 102.2; the live
  // attempt finishes at 103.2, reply lands 103.4.
  EXPECT_EQ(rec.end, Ms(103) + Us(400));
  EXPECT_EQ(cluster.service(0).completed_bursts(), 4);  // 1 blocker + 3 tries
  EXPECT_EQ(cluster.service(0).slots_in_use(), 0);
}

TEST(RpcPolicy, OrphanedAttemptSpanKeepsItsOwnTimestamps) {
  // One slot, 100 ms demand, 50 ms timeout, one retry after a 10 ms
  // backoff: attempt 0 times out holding the slot and drains as orphan
  // work, while attempt 1 arrives at 60.2 ms and queues behind it. Each
  // attempt's span must carry its own arrival and grant, not the latest
  // attempt's.
  RpcPolicy p;
  p.timeout = Ms(50);
  p.max_retries = 1;
  p.backoff_base = Ms(10);
  p.jitter = 0.0;
  const Application app = OneHopApp(Ms(100), p, /*deadline=*/0,
                                    /*threads=*/1);
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  std::vector<SpanEvent> spans;
  cluster.telemetry().span().Subscribe(
      [&](const SpanEvent& s) { spans.push_back(s); });
  cluster.Submit(0, RequestClass::kLegit, false, 1);
  sim.RunAll();

  ASSERT_EQ(spans.size(), 2u);
  for (const SpanEvent& s : spans) {
    EXPECT_LE(s.arrived, s.slot_granted);
    EXPECT_LE(s.slot_granted, s.finished);
  }
  // Attempt 0 (the orphan) finishes first.
  EXPECT_EQ(spans[0].arrived, Us(200));
  EXPECT_EQ(spans[0].slot_granted, Us(200));
  EXPECT_EQ(spans[0].finished, Ms(100) + Us(200));
  // Attempt 1 waited for the orphan's slot.
  EXPECT_EQ(spans[1].arrived, Ms(60) + Us(200));
  EXPECT_EQ(spans[1].slot_granted, Ms(100) + Us(200));
  EXPECT_EQ(spans[1].finished, Ms(200) + Us(200));
  EXPECT_EQ(cluster.DrainInvariantsBroken(), "");
}

TEST(RpcPolicy, DeadlineTruncatesPerAttemptTimeoutAndForbidsRetry) {
  RpcPolicy p;
  p.timeout = Ms(50);
  p.max_retries = 4;
  const Application app = OneHopApp(Sec(1), p, /*deadline=*/Ms(30));
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  CompletionRecord rec;
  cluster.Submit(0, RequestClass::kLegit, false, 1,
                 [&](const CompletionRecord& r) { rec = r; });
  sim.RunAll();
  EXPECT_EQ(rec.outcome, Outcome::kDeadlineExceeded);
  EXPECT_EQ(rec.end, Ms(30));  // 30 < 50: the deadline wins
  EXPECT_EQ(rec.retries, 0);   // a spent deadline is never retried into
}

TEST(RpcPolicy, DeadlinePropagatesToDownstreamHops) {
  // Hop 0 issues the downstream call at 1.2 ms (net 0.2 + pre 1.0); the
  // 10 ms deadline leaves the downstream attempt only 8.8 ms of budget, so
  // the whole request dies at exactly 10 ms however long hop 1 would take.
  Application::Builder b;
  b.SetName("deadline-chain")
      .SetServiceTimeDist(ServiceTimeDist::kDeterministic)
      .SetNetLatency(Us(200));
  const ServiceId s0 = b.AddService(Svc("s0", 8, 2));
  const ServiceId s1 = b.AddService(Svc("s1", 8, 2));
  auto t = Type("t", {{s0, Ms(1), 0}, {s1, Sec(1), 0}});
  t.deadline = Ms(10);
  b.AddRequestType(t);
  const Application app = std::move(b).Build();
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  CompletionRecord rec;
  cluster.Submit(0, RequestClass::kLegit, false, 1,
                 [&](const CompletionRecord& r) { rec = r; });
  sim.RunAll();
  EXPECT_EQ(rec.outcome, Outcome::kDeadlineExceeded);
  EXPECT_EQ(rec.end, Ms(10));
  // Both hops released their slots even though hop 1's orphan kept running.
  EXPECT_EQ(cluster.service(s0).slots_in_use(), 0);
  EXPECT_EQ(cluster.service(s1).slots_in_use(), 0);
}

TEST(RpcPolicy, BoundedQueueShedsExcessArrivals) {
  // 1 thread, queue bound 1: of three simultaneous arrivals one runs, one
  // waits, one is rejected at arrival and pays only the network round trip.
  const Application app =
      OneHopApp(Ms(1), RpcPolicy{}, 0, /*threads=*/1, /*max_queue=*/1);
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  std::vector<CompletionRecord> recs;
  for (int i = 0; i < 3; ++i) {
    cluster.Submit(0, RequestClass::kLegit, false, 1,
                   [&](const CompletionRecord& r) { recs.push_back(r); });
  }
  sim.RunAll();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].outcome, Outcome::kRejected);
  EXPECT_EQ(recs[0].end, Us(400));  // 0.2 ms there + 0.2 ms error back
  EXPECT_EQ(recs[1].outcome, Outcome::kOk);
  EXPECT_EQ(recs[2].outcome, Outcome::kOk);
  EXPECT_EQ(cluster.service(0).rejected_arrivals(), 1);
  EXPECT_EQ(cluster.outcome_count(Outcome::kRejected), 1u);
  EXPECT_EQ(cluster.outcome_count(Outcome::kOk), 2u);
}

TEST(RpcPolicy, CircuitBreakerOpensFastFailsAndReopensFromHalfOpen) {
  // Worker takes 50 ms but the edge times out at 10 ms: two consecutive
  // failures open the per-caller breaker, the next call fast-fails without
  // touching the worker, and the first half-open trial re-opens it.
  Application::Builder b;
  b.SetName("breaker").SetServiceTimeDist(ServiceTimeDist::kDeterministic)
      .SetNetLatency(Us(200));
  const ServiceId gw = b.AddService(Svc("gw", 64, 8));
  auto wspec = Svc("w", 1, 1);
  wspec.breaker_threshold = 2;
  wspec.breaker_cooldown = Ms(100);
  const ServiceId w = b.AddService(wspec);
  RpcPolicy p;
  p.timeout = Ms(10);
  auto t = Type("t", {{gw, Us(100), 0}, {w, Ms(50), 0}});
  t.hops[1].rpc = p;
  b.AddRequestType(t);
  const Application app = std::move(b).Build();

  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  std::vector<Outcome> outcomes;
  auto submit_at = [&](SimTime at) {
    sim.At(at, [&] {
      cluster.Submit(0, RequestClass::kLegit, false, 1,
                     [&](const CompletionRecord& r) {
                       outcomes.push_back(r.outcome);
                     });
    });
  };
  submit_at(0);        // timeout -> failure #1
  submit_at(Ms(30));   // timeout -> failure #2, breaker opens ~40.3 ms
  submit_at(Ms(60));   // breaker open -> fast-fail kRejected
  submit_at(Ms(200));  // cooldown over: half-open trial, times out, reopens
  submit_at(Ms(220));  // reopened -> fast-fail again
  sim.RunAll();
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_EQ(outcomes[0], Outcome::kTimeout);
  EXPECT_EQ(outcomes[1], Outcome::kTimeout);
  EXPECT_EQ(outcomes[2], Outcome::kRejected);
  EXPECT_EQ(outcomes[3], Outcome::kTimeout);
  EXPECT_EQ(outcomes[4], Outcome::kRejected);
  // Fast-failed calls never reached the worker: only the three timed-out
  // attempts' orphans ran there.
  EXPECT_EQ(cluster.service(w).completed_bursts(), 3);
}

struct BreakerRun {
  std::vector<Outcome> outcomes;
  std::vector<telemetry::BreakerTransition> transitions;
  std::string drain_invariants_broken;
};

/// Light and heavy (1 ms x 50 on the worker) calls through a gateway into a
/// one-thread worker whose per-caller breaker trips after two failures and
/// stays open for `cooldown`; the edge times out after 10 ms.
BreakerRun RunBreakerSchedule(SimDuration cooldown) {
  Application::Builder b;
  b.SetName("breaker-close")
      .SetServiceTimeDist(ServiceTimeDist::kDeterministic)
      .SetNetLatency(Us(200));
  const ServiceId gw = b.AddService(Svc("gw", 64, 8));
  auto wspec = Svc("w", 1, 1);
  wspec.breaker_threshold = 2;
  wspec.breaker_cooldown = cooldown;
  const ServiceId w = b.AddService(wspec);
  RpcPolicy p;
  p.timeout = Ms(10);
  auto t = Type("t", {{gw, Us(100), 0}, {w, Ms(1), 0}}, /*heavy=*/50);
  t.hops[1].rpc = p;
  b.AddRequestType(t);
  const Application app = std::move(b).Build();

  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  BreakerRun run;
  cluster.telemetry().breaker().Subscribe(
      [&](const telemetry::BreakerTransition& e) {
        run.transitions.push_back(e);
      });
  auto submit_at = [&](SimTime at, bool heavy) {
    sim.At(at, [&, heavy] {
      cluster.Submit(0, RequestClass::kLegit, heavy, 1,
                     [&](const CompletionRecord& r) {
                       run.outcomes.push_back(r.outcome);
                     });
    });
  };
  submit_at(0, true);         // timeout -> failure #1 at 15.2 ms
  submit_at(Ms(30), true);    // timeout -> failure #2, trips the breaker
  submit_at(Ms(60), false);
  submit_at(Ms(150), false);  // past a 100 ms cooldown: half-open probe
  submit_at(Ms(200), true);   // timeout -> failure #1 again
  submit_at(Ms(260), false);
  sim.RunAll();
  run.drain_invariants_broken = cluster.DrainInvariantsBroken();
  return run;
}

TEST(RpcPolicy, SuccessfulHalfOpenProbeClosesTheBreaker) {
  // The two heavy timeouts open the breaker until 145.2 ms, so the light
  // call at 60 ms fast-fails; the light half-open probe at 150 ms succeeds,
  // which closes it and clears the failure count, so one later failure
  // leaves it closed (threshold 2) and the next light call goes through.
  const BreakerRun run = RunBreakerSchedule(Ms(100));
  const auto& outcomes = run.outcomes;
  ASSERT_EQ(outcomes.size(), 6u);
  EXPECT_EQ(outcomes[0], Outcome::kTimeout);
  EXPECT_EQ(outcomes[1], Outcome::kTimeout);
  EXPECT_EQ(outcomes[2], Outcome::kRejected);
  EXPECT_EQ(outcomes[3], Outcome::kOk);
  EXPECT_EQ(outcomes[4], Outcome::kTimeout);
  EXPECT_EQ(outcomes[5], Outcome::kOk);
  // The breaker opened once, at the second timeout; the probe's success
  // closed it, and the later single failure did not re-open it.
  ASSERT_EQ(run.transitions.size(), 2u);
  EXPECT_TRUE(run.transitions[0].open);
  EXPECT_EQ(run.transitions[0].at, Ms(45) + Us(200));
  EXPECT_FALSE(run.transitions[1].open);
  EXPECT_EQ(run.transitions[1].at, Ms(151) + Us(700));
  EXPECT_EQ(run.transitions[1].consecutive_failures, 0);
  EXPECT_EQ(run.drain_invariants_broken, "");
}

TEST(RpcPolicy, ZeroCooldownBreakerNeverOpens) {
  // The same trips with a zero cooldown end each open state the instant it
  // begins: no call fast-fails, and the channel carries neither an open nor
  // a close when the light call at 150 ms succeeds.
  const BreakerRun run = RunBreakerSchedule(0);
  ASSERT_EQ(run.outcomes.size(), 6u);
  for (const Outcome o : run.outcomes) EXPECT_NE(o, Outcome::kRejected);
  EXPECT_EQ(run.outcomes[3], Outcome::kOk);
  EXPECT_TRUE(run.transitions.empty());
  EXPECT_EQ(run.drain_invariants_broken, "");
}

TEST(RpcPolicy, JitterStaysWithinConfiguredBand) {
  // jitter 0.5 on base 10ms: every observed retry gap after the 50ms
  // timeout must lie in [50+5, 50+15] ms. Terminal end time is the sum.
  RpcPolicy p;
  p.timeout = Ms(50);
  p.max_retries = 3;
  p.backoff_base = Ms(10);
  p.backoff_multiplier = 1.0;
  p.jitter = 0.5;
  const Application app = OneHopApp(Sec(10), p);
  sim::Simulation sim;
  Cluster cluster(sim, app, 3);
  CompletionRecord rec;
  cluster.Submit(0, RequestClass::kLegit, false, 1,
                 [&](const CompletionRecord& r) { rec = r; });
  sim.RunUntil(Sec(1));
  EXPECT_EQ(rec.outcome, Outcome::kTimeout);
  EXPECT_EQ(rec.retries, 3);
  // 4 attempts x 50ms timeout + 3 jittered backoffs in [5,15] ms each.
  EXPECT_GE(rec.end, Ms(200) + 3 * Ms(5));
  EXPECT_LE(rec.end, Ms(200) + 3 * Ms(15));
}

TEST(RpcPolicy, DefaultPolicyAppliesToEveryHopAndPerHopOverrideWins) {
  Application::Builder b;
  b.SetName("defaults").SetServiceTimeDist(ServiceTimeDist::kDeterministic)
      .SetNetLatency(Us(200));
  const ServiceId s0 = b.AddService(Svc("s0", 8, 2));
  const ServiceId s1 = b.AddService(Svc("s1", 8, 2));
  RpcPolicy dflt;
  dflt.timeout = Ms(80);
  b.SetDefaultRpcPolicy(dflt);
  RpcPolicy hop1;
  hop1.timeout = Ms(20);
  auto t = Type("t", {{s0, Ms(1), 0}, {s1, Sec(1), 0}});
  t.hops[1].rpc = hop1;
  b.AddRequestType(t);
  const Application app = std::move(b).Build();
  const auto& hops = app.request_type(0).hops;
  EXPECT_EQ(app.rpc_policy(hops[0]).timeout, Ms(80));  // default
  EXPECT_EQ(app.rpc_policy(hops[1]).timeout, Ms(20));  // override

  // Hop 1 times out at 20ms (issued at 1.2ms); the error reply reaches
  // hop 0 and the request fails well before hop 0's own 80ms timer.
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  CompletionRecord rec;
  cluster.Submit(0, RequestClass::kLegit, false, 1,
                 [&](const CompletionRecord& r) { rec = r; });
  sim.RunAll();
  EXPECT_EQ(rec.outcome, Outcome::kTimeout);
  // issue hop1 at 1.2ms + 20ms timeout + 0.2ms error reply to the client
  // side of hop 0... hop 0's slot releases and the reply travels back.
  EXPECT_EQ(rec.end, Ms(21) + Us(400));
}

TEST(RpcPolicy, EveryRequestReachesExactlyOneTerminalOutcome) {
  // Chaos mix: shedding + tight timeouts + retries + a breaker. Whatever
  // happens, submitted == completed, ids are unique, the outcome counters
  // sum up, and no slot or core leaks.
  Application::Builder b;
  b.SetName("chaos").SetServiceTimeDist(ServiceTimeDist::kDeterministic)
      .SetNetLatency(Us(200));
  auto gspec = Svc("gw", 256, 8);
  const ServiceId gw = b.AddService(gspec);
  auto wspec = Svc("w", 4, 2);
  wspec.max_queue_per_replica = 8;
  wspec.breaker_threshold = 10;
  const ServiceId w = b.AddService(wspec);
  RpcPolicy p;
  p.timeout = Ms(8);
  p.max_retries = 2;
  p.backoff_base = Ms(2);
  auto t = Type("t", {{gw, Us(200), 0}, {w, Ms(3), Us(200)}});
  t.hops[1].rpc = p;
  b.AddRequestType(t);
  const Application app = std::move(b).Build();

  sim::Simulation sim;
  Cluster cluster(sim, app, 42);
  std::vector<std::uint64_t> completed_ids;
  cluster.telemetry().completion().Subscribe([&](const CompletionRecord& r) {
    completed_ids.push_back(r.request_id);
  });
  for (int i = 0; i < 200; ++i) {
    sim.At(Us(i * 137), [&] {
      cluster.Submit(0, RequestClass::kLegit, false, 1);
    });
  }
  sim.RunAll();

  EXPECT_EQ(cluster.submitted_count(), 200u);
  EXPECT_EQ(cluster.completed_count(), 200u);
  EXPECT_EQ(cluster.in_flight(), 0u);
  ASSERT_EQ(completed_ids.size(), 200u);
  std::sort(completed_ids.begin(), completed_ids.end());
  completed_ids.erase(
      std::unique(completed_ids.begin(), completed_ids.end()),
      completed_ids.end());
  EXPECT_EQ(completed_ids.size(), 200u);  // no double completion
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kOutcomeCount; ++i) {
    sum += cluster.outcome_count(static_cast<Outcome>(i));
  }
  EXPECT_EQ(sum, 200u);
  for (std::size_t i = 0; i < cluster.service_count(); ++i) {
    const auto& svc = cluster.service(static_cast<ServiceId>(i));
    EXPECT_EQ(svc.slots_in_use(), 0) << app.service(i).name;
    EXPECT_EQ(svc.slots_waiting(), 0) << app.service(i).name;
    EXPECT_EQ(svc.cpu_busy(), 0) << app.service(i).name;
    EXPECT_EQ(svc.cpu_queue_length(), 0) << app.service(i).name;
  }
  // The overload actually bit: some requests timed out or were shed.
  EXPECT_GT(cluster.completed_count() - cluster.ok_count(), 0u);
  EXPECT_EQ(cluster.DrainInvariantsBroken(), "");
}

TEST(RpcPolicy, DormantDefaultsChangeNothing) {
  // The seed behaviour must be bit-identical with no policy configured:
  // same completion time, all-ok outcomes, zero retries.
  const Application app = grunt::testing::SingleChainApp();
  sim::Simulation sim;
  Cluster cluster(sim, app, 1);
  CompletionRecord rec;
  cluster.Submit(0, RequestClass::kLegit, false, 1,
                 [&](const CompletionRecord& r) { rec = r; });
  sim.RunAll();
  EXPECT_EQ(rec.outcome, Outcome::kOk);
  EXPECT_EQ(rec.retries, 0);
  EXPECT_EQ(rec.end, Ms(9) + Us(1200));
  EXPECT_EQ(cluster.ok_count(), 1u);
}

}  // namespace
}  // namespace grunt::microsvc
