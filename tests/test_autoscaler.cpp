#include "cloud/autoscaler.h"

#include <gtest/gtest.h>

#include "fixtures.h"
#include "workload/workload.h"

namespace grunt::cloud {
namespace {

using grunt::testing::SingleChainApp;

struct Rig {
  sim::Simulation sim;
  microsvc::Application app = SingleChainApp();
  microsvc::Cluster cluster{sim, app, 1};
  ResourceMonitor monitor{cluster, {Sec(1), "m"}};
};

/// Keeps service s1 at a given utilization via direct CPU bursts.
void DriveUtilization(Rig& rig, double util, SimTime until) {
  const auto s1 = *rig.app.FindService("s1");
  // Every 100 ms, inject util * cores * 100 ms of work.
  const SimDuration burst = static_cast<SimDuration>(
      util * 2 /*cores*/ * 100'000 / 2 /*two bursts*/);
  for (SimTime t = 0; t < until; t += Ms(100)) {
    rig.sim.At(t, [&rig, s1, burst] {
      rig.cluster.service(s1).RunCpu(burst, [] {});
      rig.cluster.service(s1).RunCpu(burst, [] {});
    });
  }
}

TEST(AutoScaler, ScalesUpAfterSustainedHighUtil) {
  Rig rig;
  AutoScaler::Config cfg;
  cfg.window = Sec(5);
  cfg.provision_delay = Sec(3);
  cfg.cooldown = Sec(5);
  AutoScaler scaler(rig.cluster, rig.monitor, cfg);
  rig.monitor.Start();
  scaler.Start();
  DriveUtilization(rig, 0.9, Sec(20));
  rig.sim.RunUntil(Sec(20));
  const auto s1 = *rig.app.FindService("s1");
  EXPECT_GE(scaler.scale_up_count(), 1u);
  EXPECT_GE(rig.cluster.service(s1).replicas(), 2);
  // First action: >= window (5 samples) + provision delay.
  ASSERT_FALSE(scaler.actions().empty());
  EXPECT_GE(scaler.actions().front().at, Sec(8));
  EXPECT_EQ(scaler.actions().front().service, s1);
  EXPECT_EQ(scaler.actions().front().delta, 1);
}

TEST(AutoScaler, NoActionBelowThreshold) {
  Rig rig;
  AutoScaler::Config cfg;
  cfg.window = Sec(5);
  AutoScaler scaler(rig.cluster, rig.monitor, cfg);
  rig.monitor.Start();
  scaler.Start();
  DriveUtilization(rig, 0.6, Sec(30));  // between down (0.3) and up (0.7)
  rig.sim.RunUntil(Sec(30));
  EXPECT_TRUE(scaler.actions().empty());
}

TEST(AutoScaler, SubSecondMillibottlenecksInvisibleAtOneSecondGranularity) {
  // The paper's central stealth claim: alternating <500 ms saturation
  // pulses with cool gaps never push any 1 s sample over the threshold.
  Rig rig;
  AutoScaler::Config cfg;
  cfg.window = Sec(5);
  AutoScaler scaler(rig.cluster, rig.monitor, cfg);
  rig.monitor.Start();
  scaler.Start();
  const auto s1 = *rig.app.FindService("s1");
  // 400 ms of full 2-core saturation every 1.5 s.
  for (SimTime t = 0; t < Sec(40); t += Ms(1500)) {
    rig.sim.At(t, [&rig, s1] {
      for (int c = 0; c < 2; ++c) {
        rig.cluster.service(s1).RunCpu(Ms(400), [] {});
      }
    });
  }
  rig.sim.RunUntil(Sec(40));
  EXPECT_TRUE(scaler.actions().empty());
  EXPECT_LT(rig.monitor.cpu_util(s1).WindowMax(0, Sec(40)), 0.70);
}

TEST(AutoScaler, ScalesDownWhenIdleAndRespectsFloor) {
  Rig rig;
  const auto s1 = *rig.app.FindService("s1");
  rig.cluster.service(s1).AddReplica();
  AutoScaler::Config cfg;
  cfg.window = Sec(5);
  cfg.cooldown = Sec(5);
  AutoScaler scaler(rig.cluster, rig.monitor, cfg);
  rig.monitor.Start();
  scaler.Start();
  rig.sim.RunUntil(Sec(60));  // fully idle
  EXPECT_GE(scaler.scale_down_count(), 1u);
  // Every service is back at 1 replica and never below.
  for (std::size_t i = 0; i < rig.cluster.service_count(); ++i) {
    EXPECT_EQ(rig.cluster.service(static_cast<std::int32_t>(i)).replicas(), 1);
  }
}

TEST(AutoScaler, RespectsMaxReplicas) {
  Rig rig;
  AutoScaler::Config cfg;
  cfg.window = Sec(3);
  cfg.provision_delay = Sec(1);
  cfg.cooldown = Sec(3);
  AutoScaler scaler(rig.cluster, rig.monitor, cfg);
  rig.monitor.Start();
  scaler.Start();
  DriveUtilization(rig, 0.99, Sec(300));
  rig.sim.RunUntil(Sec(300));
  const auto s1 = *rig.app.FindService("s1");
  EXPECT_LE(rig.cluster.service(s1).replicas(),
            rig.app.service(s1).max_replicas);
}

TEST(AutoScaler, CooldownSpacesActions) {
  Rig rig;
  AutoScaler::Config cfg;
  cfg.window = Sec(2);
  cfg.provision_delay = 0;
  cfg.cooldown = Sec(10);
  AutoScaler scaler(rig.cluster, rig.monitor, cfg);
  rig.monitor.Start();
  scaler.Start();
  DriveUtilization(rig, 0.95, Sec(25));
  rig.sim.RunUntil(Sec(25));
  const auto& actions = scaler.actions();
  for (std::size_t i = 1; i < actions.size(); ++i) {
    if (actions[i].service == actions[i - 1].service) {
      EXPECT_GE(actions[i].at - actions[i - 1].at, Sec(10));
    }
  }
}

TEST(AutoScaler, DestroyedBeforeItsClusterCancelsTimerAndProvisioning) {
  Rig rig;
  AutoScaler::Config cfg;
  cfg.window = Sec(5);
  cfg.provision_delay = Sec(10);
  cfg.cooldown = Sec(5);
  rig.monitor.Start();
  DriveUtilization(rig, 0.9, Sec(30));
  {
    AutoScaler scaler(rig.cluster, rig.monitor, cfg);
    scaler.Start();
    // A scale-out is decided once the 5 s window fills (same shape as
    // ScalesUpAfterSustainedHighUtil) but is still provisioning at 8 s.
    rig.sim.RunUntil(Sec(8));
    EXPECT_EQ(scaler.scale_up_count(), 0u);
  }
  // Neither the evaluation timer nor the pending scale-out may reach the
  // destroyed autoscaler; the cancelled replica never arrives.
  rig.sim.RunUntil(Sec(30));
  EXPECT_EQ(rig.cluster.service(*rig.app.FindService("s1")).replicas(), 1);
}

}  // namespace
}  // namespace grunt::cloud
