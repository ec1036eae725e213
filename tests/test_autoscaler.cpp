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

/// Offers service s1 `util` times its 2-core capacity until `until`, via
/// direct CPU bursts every 100 ms. Above 1 the excess queues, so s1 stays
/// fully busy until its cores outgrow the load.
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

// One 1 s sample lands at every whole second from 1 s on, and each
// evaluation reads the 30 samples before it: the window first fills at the
// 31 s evaluation, which reads the samples at 1..30 s.

TEST(AutoScaler, ScalesUpAfterSustainedHighUtil) {
  Rig rig;
  AutoScaler scaler(rig.cluster, rig.monitor, {.provision_delay = Sec(3)});
  rig.monitor.Start();
  scaler.Start();
  DriveUtilization(rig, 0.9, Sec(80));
  rig.sim.RunUntil(Sec(80));
  const auto s1 = *rig.app.FindService("s1");
  // Decided at 31 s, serving 3 s later; at 2 replicas s1 runs at 45 %.
  EXPECT_EQ(scaler.scale_up_count(), 1u);
  EXPECT_EQ(rig.cluster.service(s1).replicas(), 2);
  ASSERT_EQ(scaler.actions().size(), 1u);
  EXPECT_EQ(scaler.actions().front().at, Sec(34));
  EXPECT_EQ(scaler.actions().front().service, s1);
  EXPECT_EQ(scaler.actions().front().delta, 1);
}

TEST(AutoScaler, NoActionBelowThreshold) {
  Rig rig;
  AutoScaler scaler(rig.cluster, rig.monitor, {});
  rig.monitor.Start();
  scaler.Start();
  DriveUtilization(rig, 0.6, Sec(90));  // between down (0.3) and up (0.7)
  rig.sim.RunUntil(Sec(90));
  EXPECT_TRUE(scaler.actions().empty());
}

TEST(AutoScaler, SubSecondMillibottlenecksInvisibleAtOneSecondGranularity) {
  // The paper's central stealth claim: alternating <500 ms saturation
  // pulses with cool gaps never push any 1 s sample over the threshold.
  Rig rig;
  AutoScaler scaler(rig.cluster, rig.monitor, {});
  rig.monitor.Start();
  scaler.Start();
  const auto s1 = *rig.app.FindService("s1");
  // 400 ms of full 2-core saturation every 1.5 s.
  for (SimTime t = 0; t < Sec(90); t += Ms(1500)) {
    rig.sim.At(t, [&rig, s1] {
      for (int c = 0; c < 2; ++c) {
        rig.cluster.service(s1).RunCpu(Ms(400), [] {});
      }
    });
  }
  rig.sim.RunUntil(Sec(90));
  EXPECT_TRUE(scaler.actions().empty());
  EXPECT_LT(rig.monitor.cpu_util(s1).WindowMax(0, Sec(90)), 0.70);
}

TEST(AutoScaler, ScalesDownWhenIdleAndRespectsFloor) {
  Rig rig;
  const auto s1 = *rig.app.FindService("s1");
  rig.cluster.service(s1).AddReplica();
  AutoScaler scaler(rig.cluster, rig.monitor, {});
  rig.monitor.Start();
  scaler.Start();
  rig.sim.RunUntil(Sec(120));  // fully idle
  // A scale-in takes effect at its decision: the first full window.
  ASSERT_EQ(scaler.actions().size(), 1u);
  EXPECT_EQ(scaler.actions().front().at, Sec(31));
  EXPECT_EQ(scaler.actions().front().service, s1);
  EXPECT_EQ(scaler.actions().front().delta, -1);
  // Every service is back at 1 replica and never below.
  for (std::size_t i = 0; i < rig.cluster.service_count(); ++i) {
    EXPECT_EQ(rig.cluster.service(static_cast<std::int32_t>(i)).replicas(), 1);
  }
}

TEST(AutoScaler, RespectsMaxReplicas) {
  Rig rig;
  AutoScaler scaler(rig.cluster, rig.monitor, {.provision_delay = Sec(1)});
  rig.monitor.Start();
  scaler.Start();
  DriveUtilization(rig, 10.0, Sec(300));  // more than 8 replicas can serve
  rig.sim.RunUntil(Sec(300));
  // One scale-out per cooldown, from 1 replica up to the cap of 8.
  const auto s1 = *rig.app.FindService("s1");
  EXPECT_EQ(rig.app.service(s1).max_replicas, 8);
  EXPECT_EQ(rig.cluster.service(s1).replicas(), 8);
  EXPECT_EQ(scaler.scale_up_count(), 7u);
}

TEST(AutoScaler, CooldownSpacesActions) {
  Rig rig;
  AutoScaler scaler(rig.cluster, rig.monitor, {.provision_delay = 0});
  rig.monitor.Start();
  scaler.Start();
  DriveUtilization(rig, 10.0, Sec(130));
  rig.sim.RunUntil(Sec(130));
  // s1 stays saturated, so it scales out as often as the 30 s cooldown
  // allows: at 31, 61, 91 and 121 s.
  const auto& actions = scaler.actions();
  ASSERT_EQ(actions.size(), 4u);
  EXPECT_EQ(actions.front().at, Sec(31));
  for (std::size_t i = 1; i < actions.size(); ++i) {
    EXPECT_EQ(actions[i].service, actions[0].service);
    EXPECT_EQ(actions[i].at - actions[i - 1].at, Sec(30));
  }
}

TEST(AutoScaler, DestroyedBeforeItsClusterCancelsTimerAndProvisioning) {
  Rig rig;
  rig.monitor.Start();
  DriveUtilization(rig, 0.9, Sec(60));
  {
    AutoScaler scaler(rig.cluster, rig.monitor, {.provision_delay = Sec(10)});
    scaler.Start();
    // A scale-out is decided once the window fills at 31 s (same shape as
    // ScalesUpAfterSustainedHighUtil) but is still provisioning at 35 s.
    rig.sim.RunUntil(Sec(35));
    EXPECT_EQ(scaler.scale_up_count(), 0u);
  }
  // Neither the evaluation timer nor the pending scale-out may reach the
  // destroyed autoscaler; the cancelled replica never arrives.
  rig.sim.RunUntil(Sec(60));
  EXPECT_EQ(rig.cluster.service(*rig.app.FindService("s1")).replicas(), 1);
}

}  // namespace
}  // namespace grunt::cloud
