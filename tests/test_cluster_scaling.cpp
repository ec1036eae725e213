// Cluster behaviour under runtime scaling: replicas added/removed while
// requests are in flight, capacity effects on latency, and conservation
// invariants (every submitted request completes exactly once).

#include <gtest/gtest.h>

#include "fixtures.h"
#include "microsvc/cluster.h"
#include "util/stats.h"
#include "workload/workload.h"

namespace grunt::microsvc {
namespace {

using grunt::testing::CompletionLog;
using grunt::testing::SingleChainApp;

TEST(ClusterScaling, ScaleOutCutsQueueingLatency) {
  sim::Simulation sim;
  const auto app = SingleChainApp(ServiceTimeDist::kExponential);
  Cluster cluster(sim, app, 21);
  const CompletionLog log(cluster);
  // Overload s1 (capacity ~333/s at 6ms on 2 cores) with 420/s.
  workload::OpenLoopSource::Config wl;
  wl.rate = 420;
  wl.mix = workload::RequestMix::Uniform({0});
  workload::OpenLoopSource src(cluster, wl, 21);
  src.Start();
  const auto s1 = *app.FindService("s1");
  sim.At(Sec(20), [&] { cluster.service(s1).AddReplica(); });
  sim.RunUntil(Sec(45));

  Samples before, after;
  for (const auto& rec : log.records()) {
    if (rec.end >= Sec(12) && rec.end < Sec(20)) {
      before.Add(ToMillis(rec.end - rec.start));
    } else if (rec.end >= Sec(30) && rec.end < Sec(45)) {
      after.Add(ToMillis(rec.end - rec.start));
    }
  }
  ASSERT_GT(before.count(), 500u);
  ASSERT_GT(after.count(), 500u);
  EXPECT_GT(before.mean(), 3 * after.mean());
  EXPECT_EQ(cluster.service(s1).replicas(), 2);
}

TEST(ClusterScaling, ScaleInRaisesLatencyButLosesNothing) {
  sim::Simulation sim;
  const auto app = SingleChainApp(ServiceTimeDist::kExponential);
  Cluster cluster(sim, app, 22);
  const CompletionLog log(cluster);
  const auto s1 = *app.FindService("s1");
  cluster.service(s1).AddReplica();  // start at 2 replicas
  workload::OpenLoopSource::Config wl;
  wl.rate = 250;
  wl.mix = workload::RequestMix::Uniform({0});
  workload::OpenLoopSource src(cluster, wl, 22);
  src.Start();
  sim.At(Sec(20), [&] { cluster.service(s1).RemoveReplica(); });
  sim.RunUntil(Sec(40));
  src.Stop();
  sim.RunUntil(Sec(60));  // drain

  // Conservation: everything submitted completed exactly once.
  EXPECT_EQ(cluster.in_flight(), 0u);
  EXPECT_EQ(cluster.completed_count(), src.requests_issued());
  EXPECT_EQ(log.records().size(), src.requests_issued());

  Samples before, after;
  for (const auto& rec : log.records()) {
    if (rec.end >= Sec(10) && rec.end < Sec(20)) {
      before.Add(ToMillis(rec.end - rec.start));
    } else if (rec.end >= Sec(25) && rec.end < Sec(40)) {
      after.Add(ToMillis(rec.end - rec.start));
    }
  }
  // 250/s against 333/s on one replica: noticeably slower than on two.
  EXPECT_GT(after.mean(), before.mean() * 1.3);
}

TEST(ClusterScaling, RequestIdsAreUniqueAndMonotonic) {
  sim::Simulation sim;
  const auto app = SingleChainApp();
  Cluster cluster(sim, app, 23);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(cluster.Submit(0, RequestClass::kLegit, false, 1));
  }
  sim.RunAll();
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], ids[i - 1] + 1);
  }
  EXPECT_EQ(cluster.submitted_count(), 50u);
  EXPECT_EQ(cluster.completed_count(), 50u);
}

TEST(ClusterScaling, CompletionOrderRespectsCausalityUnderContention) {
  // With deterministic demands and FCFS resources, a request submitted
  // strictly later through an empty pipeline can never complete earlier.
  sim::Simulation sim;
  const auto app = SingleChainApp();
  Cluster cluster(sim, app, 24);
  std::vector<SimTime> ends(3, 0);
  for (int i = 0; i < 3; ++i) {
    sim.At(Sec(i), [&cluster, &ends, i] {
      cluster.Submit(0, RequestClass::kLegit, false, 1,
                     [&ends, i](const CompletionRecord& r) {
                       ends[static_cast<std::size_t>(i)] = r.end;
                     });
    });
  }
  sim.RunAll();
  EXPECT_LT(ends[0], ends[1]);
  EXPECT_LT(ends[1], ends[2]);
}

}  // namespace
}  // namespace grunt::microsvc
