#include "cloud/monitor.h"

#include <gtest/gtest.h>

#include "fixtures.h"
#include "workload/workload.h"

namespace grunt::cloud {
namespace {

using grunt::testing::SingleChainApp;

TEST(ResourceMonitor, MeasuresKnownCpuUtilization) {
  sim::Simulation sim;
  const auto app = SingleChainApp();  // deterministic demands
  microsvc::Cluster cluster(sim, app, 1);
  ResourceMonitor monitor(cluster, {Sec(1), "m"});
  monitor.Start();
  // s1: 5 ms (+1 ms post) on 2 cores. 100 req/s -> util = 0.6/2 = 30%.
  workload::OpenLoopSource::Config cfg;
  cfg.rate = 100;
  cfg.mix = workload::RequestMix::Uniform({0});
  workload::OpenLoopSource src(cluster, cfg, 1);
  src.Start();
  sim.RunUntil(Sec(30));
  const auto s1 = *app.FindService("s1");
  const double util = monitor.cpu_util(s1).WindowMean(Sec(5), Sec(30));
  EXPECT_NEAR(util, 0.30, 0.03);
  const auto s0 = *app.FindService("s0");
  EXPECT_NEAR(monitor.cpu_util(s0).WindowMean(Sec(5), Sec(30)), 0.05, 0.02);
}

TEST(ResourceMonitor, GatewayMbpsTracksBytes) {
  sim::Simulation sim;
  const auto app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  ResourceMonitor monitor(cluster, {Sec(1), "m"});
  monitor.Start();
  workload::OpenLoopSource::Config cfg;
  cfg.rate = 200;
  cfg.mix = workload::RequestMix::Uniform({0});
  workload::OpenLoopSource src(cluster, cfg, 2);
  src.Start();
  sim.RunUntil(Sec(20));
  const auto& spec = app.request_type(0);
  const double expected_mbps =
      200.0 * static_cast<double>(spec.request_bytes + spec.response_bytes) /
      1e6;
  EXPECT_NEAR(monitor.gateway_mbps().WindowMean(Sec(5), Sec(20)),
              expected_mbps, expected_mbps * 0.15);
}

TEST(ResourceMonitor, GranularityControlsSampleCount) {
  sim::Simulation sim;
  const auto app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  ResourceMonitor coarse(cluster, {Sec(1), "coarse"});
  ResourceMonitor fine(cluster, {Ms(100), "fine"});
  coarse.Start();
  fine.Start();
  sim.RunUntil(Sec(10));
  EXPECT_EQ(coarse.cpu_util(0).size(), 10u);
  EXPECT_EQ(fine.cpu_util(0).size(), 100u);
  coarse.Stop();
  fine.Stop();
  sim.RunUntil(Sec(12));
  EXPECT_EQ(coarse.cpu_util(0).size(), 10u);
}

TEST(ResourceMonitor, FineGranularitySeesMillibottleneckCoarseMisses) {
  // The stealthiness argument in miniature (Fig 13 vs Fig 14): a ~300 ms
  // CPU burst saturates the service; only the 100 ms monitor sees >95%
  // utilization samples.
  sim::Simulation sim;
  const auto app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  ResourceMonitor coarse(cluster, {Sec(1), "coarse"});
  ResourceMonitor fine(cluster, {Ms(100), "fine"});
  coarse.Start();
  fine.Start();
  const auto s1 = *app.FindService("s1");
  // Saturate s1's 2 cores for ~300 ms starting at t=2.2s.
  sim.At(Ms(2200), [&] {
    for (int i = 0; i < 100; ++i) {
      cluster.service(s1).RunCpu(Ms(6), [] {});
    }
  });
  sim.RunUntil(Sec(5));
  EXPECT_GT(fine.cpu_util(s1).WindowMax(0, Sec(5)), 0.95);
  EXPECT_LT(coarse.cpu_util(s1).WindowMax(0, Sec(5)), 0.60);
}

TEST(ResponseTimeMonitor, WindowsLegitOnly) {
  sim::Simulation sim;
  const auto app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  ResponseTimeMonitor rt(cluster, {Sec(1), "rt"});
  rt.Start();
  // Spaced out so the classes do not contend for CPU.
  sim.At(Ms(100), [&] {
    cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
  });
  sim.At(Ms(400), [&] {
    cluster.Submit(0, microsvc::RequestClass::kAttack, true, 2);
  });
  sim.At(Ms(700), [&] {
    cluster.Submit(0, microsvc::RequestClass::kProbe, false, 3);
  });
  sim.RunUntil(Sec(3));
  const Samples window = rt.LegitWindow(0, Sec(3));
  ASSERT_EQ(window.count(), 1u);  // only the legit one
  EXPECT_NEAR(window.mean(), 10.2, 0.01);  // 9 ms CPU + 1.2 ms network
  // Per-window series: the legit completion lands in the first 1 s bucket.
  ASSERT_GE(rt.legit_mean_ms().size(), 3u);
  EXPECT_NEAR(rt.legit_mean_ms().at(0).value, 10.2, 0.01);
  EXPECT_DOUBLE_EQ(rt.legit_mean_ms().at(1).value, 0.0);
  EXPECT_NEAR(rt.goodput().at(0).value, 1.0, 1e-9);
  // The same completion feeds the registry histogram: one observation in
  // "rt.legit_ms", and the p95 estimate lies inside its (10, 20] bucket.
  auto& reg = cluster.telemetry().metrics();
  const auto h = reg.Find("rt.legit_ms");
  ASSERT_NE(h, telemetry::MetricsRegistry::kInvalidId);
  EXPECT_EQ(reg.histogram_count(h), 1u);
  EXPECT_NEAR(reg.histogram_sum(h), 10.2, 0.01);
  const double p95 = reg.histogram_quantile(h, 0.95);
  EXPECT_GT(p95, 10.0);
  EXPECT_LE(p95, 20.0);
}

TEST(ResponseTimeMonitor, P95TracksTail) {
  sim::Simulation sim;
  const auto app = SingleChainApp(microsvc::ServiceTimeDist::kExponential);
  microsvc::Cluster cluster(sim, app, 9);
  ResponseTimeMonitor rt(cluster, {Sec(1), "rt"});
  rt.Start();
  workload::OpenLoopSource::Config cfg;
  cfg.rate = 100;
  cfg.mix = workload::RequestMix::Uniform({0});
  workload::OpenLoopSource src(cluster, cfg, 9);
  src.Start();
  sim.RunUntil(Sec(20));
  const Samples window = rt.LegitWindow(Sec(2), Sec(20));
  EXPECT_GT(window.Percentile(95), window.mean());
}

TEST(ResourceMonitor, DestroyedBeforeItsClusterCancelsItsTimer) {
  sim::Simulation sim;
  const auto app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  {
    ResourceMonitor monitor(cluster, {Ms(100), "m"});
    monitor.Start();
    sim.RunUntil(Ms(500));
  }
  // The sampling timer must not fire into the destroyed monitor.
  sim.At(Sec(1), [&] {
    cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
  });
  sim.RunUntil(Sec(3));
}

TEST(ResponseTimeMonitor, DestroyedBeforeItsClusterLeavesNoDanglingHooks) {
  sim::Simulation sim;
  const auto app = SingleChainApp();
  microsvc::Cluster cluster(sim, app, 1);
  auto& completions = cluster.telemetry().completion();
  const std::size_t subscribers = completions.subscriber_count();
  {
    ResponseTimeMonitor rt(cluster, {Sec(1), "rt"});
    rt.Start();
    sim.At(Ms(100), [&] {
      cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
    });
    sim.RunUntil(Ms(1500));
  }
  EXPECT_EQ(completions.subscriber_count(), subscribers);
  // Neither later completions nor the flush timer may reach the destroyed
  // monitor.
  sim.At(Sec(2), [&] {
    cluster.Submit(0, microsvc::RequestClass::kLegit, false, 1);
  });
  sim.RunUntil(Sec(5));
}

}  // namespace
}  // namespace grunt::cloud
