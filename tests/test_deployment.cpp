#include "scenario/deployment.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "fixtures.h"
#include "scenario/builder.h"
#include "scenario/loader.h"

namespace grunt::scenario {
namespace {

using grunt::testing::Svc;
using grunt::testing::Type;

/// An open-loop scenario over `app` watched by the 1 s monitors only.
ScenarioSpec OpenLoopSpec(const microsvc::Application& app, double rate) {
  ScenarioSpec spec;
  spec.name = "fixture";
  spec.topology = TopologyFromApplication(app);
  spec.workload.kind = WorkloadSpec::Kind::kOpenLoop;
  spec.workload.rate = rate;
  spec.operators.autoscaler_enabled = false;
  spec.operators.ids_enabled = false;
  return spec;
}

TEST(ScenarioRig, HottestBackendSkipsABusierGateway) {
  // One path: a single-core gateway at 6 ms per request, then two
  // two-core backends at 2 ms and 5 ms. At 100 req/s the gateway runs at
  // ~60 %, backend b2 at ~25 % and b1 at ~10 %.
  microsvc::Application::Builder b;
  b.SetNetLatency(Us(200));
  const auto gw = b.AddService(Svc("gw", kGatewayThreads, 1));
  const auto b1 = b.AddService(Svc("b1", 64, 2));
  const auto b2 = b.AddService(Svc("b2", 64, 2));
  b.AddRequestType(
      Type("r", {{gw, Ms(6), 0}, {b1, Ms(2), 0}, {b2, Ms(5), 0}}));
  const auto app = std::move(b).Build();

  ScenarioRig rig(OpenLoopSpec(app, 100), 3);
  rig.RunUntil(Sec(20));
  const auto& cpu = rig.cloudwatch();
  ASSERT_GT(cpu.cpu_util(gw).WindowMean(Sec(5), Sec(20)),
            cpu.cpu_util(b2).WindowMean(Sec(5), Sec(20)));
  EXPECT_EQ(rig.HottestBackend(Sec(5), Sec(20)), b2);
}

TEST(ScenarioRig, RejectsANegativeOpenLoopRate) {
  try {
    ScenarioRig rig(OpenLoopSpec(grunt::testing::SingleChainApp(), -5), 1);
    FAIL() << "expected a negative rate to be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rate: -5"), std::string::npos)
        << e.what();
  }
  // Rate 0 stays valid: it deploys a paused source.
  ScenarioRig paused(OpenLoopSpec(grunt::testing::SingleChainApp(), 0), 1);
  paused.RunUntil(Sec(5));
  EXPECT_EQ(paused.open_source()->requests_issued(), 0u);
}

TEST(ScenarioRig, RejectsANonPositiveThinkTime) {
  ScenarioSpec spec = OpenLoopSpec(grunt::testing::SingleChainApp(), 0);
  spec.workload.kind = WorkloadSpec::Kind::kClosedLoop;
  for (const SimDuration think : {SimDuration{0}, -Ms(2)}) {
    spec.workload.think_mean = think;
    try {
      ScenarioRig rig(spec, 1);
      FAIL() << "expected think_mean " << think << " us to be rejected";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "think_mean: " + std::to_string(think) + " us"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RunUntilDone, ThrowsAtTheRunCapNamingTheRun) {
  sim::Simulation sim;
  const bool done = false;
  try {
    RunUntilDone(sim, done, Sec(600), "the probe");
    FAIL() << "expected the run cap to be hit";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "the probe did not finish within the 7200 s simulated cap");
  }
  EXPECT_EQ(sim.Now(), kRunCap);
}

TEST(RunUntilDone, StopsAtTheFirstStepAfterDone) {
  sim::Simulation sim;
  bool done = false;
  sim.At(Sec(25), [&] { done = true; });
  RunUntilDone(sim, done, Sec(10), "the probe");
  EXPECT_EQ(sim.Now(), Sec(30));
}

TEST(ScoreProfile, CountsEveryVerdictAgainstTheTruth) {
  // Paths a, b and d bottleneck on their own workers behind one small
  // shared upstream (pairwise parallel); c shares only the gateway, which
  // no stealth burst can overflow (independent of all three).
  microsvc::Application::Builder builder;
  builder.SetNetLatency(Us(200));
  const auto gw = builder.AddService(Svc("gw", 2048, 8));
  const auto um = builder.AddService(Svc("um", 12, 4));
  const auto leaf = builder.AddService(Svc("leaf", 128, 2));
  const auto behind_um = [&](const std::string& name) {
    const auto worker = builder.AddService(Svc("worker-" + name, 64, 2));
    builder.AddRequestType(Type(name, {{gw, Us(200), 0},
                                       {um, Us(1000), Us(400)},
                                       {worker, Us(9000), Us(500)},
                                       {leaf, Us(400), 0}}));
  };
  behind_um("a");
  behind_um("b");
  behind_um("d");
  const auto wc = builder.AddService(Svc("worker-c", 64, 2));
  builder.AddRequestType(
      Type("c", {{gw, Us(200), 0}, {wc, Us(9000), Us(500)}}));
  const auto app = std::move(builder).Build();
  const auto id = [&](const char* name) { return *app.FindRequestType(name); };
  const auto a = id("a"), b = id("b"), c = id("c"), d = id("d");
  const trace::GroundTruth truth(
      app, std::vector<double>(app.request_type_count(), 40.0));
  ASSERT_EQ(truth.Classify(a, b), trace::DepType::kParallel);
  ASSERT_EQ(truth.Classify(a, d), trace::DepType::kParallel);
  ASSERT_EQ(truth.Classify(b, d), trace::DepType::kParallel);
  for (const auto other : {a, b, d}) {
    ASSERT_EQ(truth.Classify(other, c), trace::DepType::kNone);
  }

  attack::ProfileResult result;
  const auto verdict = [&](std::int32_t x, std::int32_t y,
                           trace::DepType inferred) {
    attack::PairEvidence ev;
    ev.a = x;
    ev.b = y;
    ev.inferred = inferred;
    result.evidence.push_back(ev);
  };
  verdict(a, b, trace::DepType::kParallel);       // tp, kind agrees
  verdict(a, d, trace::DepType::kMutual);         // tp, kind differs
  verdict(b, d, trace::DepType::kNone);           // fn
  verdict(a, c, trace::DepType::kSequentialAUp);  // fp
  verdict(b, c, trace::DepType::kNone);           // tn
  verdict(d, c, trace::DepType::kNone);           // tn

  const ProfileScore s = ScoreProfile(result, truth);
  EXPECT_EQ(s.tp, 2);
  EXPECT_EQ(s.fp, 1);
  EXPECT_EQ(s.fn, 1);
  EXPECT_EQ(s.tn, 2);
  EXPECT_EQ(s.kind_match, 1);
  EXPECT_DOUBLE_EQ(s.precision(), 2.0 / 3);
  EXPECT_DOUBLE_EQ(s.recall(), 2.0 / 3);
  EXPECT_DOUBLE_EQ(s.f1(), 2.0 / 3);
}

}  // namespace
}  // namespace grunt::scenario
