#include "microsvc/application.h"

#include <gtest/gtest.h>

#include "fixtures.h"

namespace grunt::microsvc {
namespace {

using testing::Svc;
using testing::Type;

TEST(ApplicationBuilder, BuildsValidTopology) {
  const Application app = grunt::testing::TwoPathParallelApp();
  EXPECT_EQ(app.service_count(), 5u);
  EXPECT_EQ(app.request_type_count(), 2u);
  EXPECT_EQ(app.name(), "two-path-parallel");
  EXPECT_TRUE(app.FindService("um").has_value());
  EXPECT_FALSE(app.FindService("nope").has_value());
  EXPECT_TRUE(app.FindRequestType("a").has_value());
  EXPECT_FALSE(app.FindRequestType("zzz").has_value());
}

TEST(ApplicationBuilder, RejectsDuplicateServiceNames) {
  Application::Builder b;
  b.AddService(Svc("dup", 4, 1));
  b.AddService(Svc("dup", 4, 1));
  EXPECT_THROW(std::move(b).Build(), std::invalid_argument);
}

TEST(ApplicationBuilder, RejectsDanglingServiceReference) {
  Application::Builder b;
  b.AddService(Svc("only", 4, 1));
  b.AddRequestType(Type("t", {{5, Us(100), 0}}));
  EXPECT_THROW(std::move(b).Build(), std::invalid_argument);
}

TEST(ApplicationBuilder, RejectsEmptyDynamicPath) {
  Application::Builder b;
  b.AddService(Svc("s", 4, 1));
  b.AddRequestType(Type("empty", {}));
  EXPECT_THROW(std::move(b).Build(), std::invalid_argument);
}

TEST(ApplicationBuilder, RejectsRepeatedServiceOnPath) {
  Application::Builder b;
  const ServiceId s = b.AddService(Svc("s", 4, 1));
  b.AddRequestType(Type("loop", {{s, Us(100), 0}, {s, Us(100), 0}}));
  EXPECT_THROW(std::move(b).Build(), std::invalid_argument);
}

TEST(ApplicationBuilder, RejectsNegativeDemandAndBadHeavy) {
  {
    Application::Builder b;
    const ServiceId s = b.AddService(Svc("s", 4, 1));
    b.AddRequestType(Type("neg", {{s, -5, 0}}));
    EXPECT_THROW(std::move(b).Build(), std::invalid_argument);
  }
  {
    Application::Builder b;
    const ServiceId s = b.AddService(Svc("s", 4, 1));
    b.AddRequestType(Type("light", {{s, Us(10), 0}}, /*heavy=*/0.5));
    EXPECT_THROW(std::move(b).Build(), std::invalid_argument);
  }
}

TEST(ApplicationBuilder, RejectsInvalidSizing) {
  Application::Builder b;
  ServiceSpec bad = Svc("bad", 0, 1);
  b.AddService(bad);
  EXPECT_THROW(std::move(b).Build(), std::invalid_argument);
}

TEST(ApplicationBuilder, AllowsStaticTypeWithoutHops) {
  Application::Builder b;
  b.AddService(Svc("gw", 4, 1));
  RequestTypeSpec st;
  st.name = "static";
  st.is_static = true;
  b.AddRequestType(st);
  const Application app = std::move(b).Build();
  EXPECT_TRUE(app.PublicDynamicTypes().empty());
}

TEST(ApplicationTopology, PathAndSharedServiceQueries) {
  const Application app = grunt::testing::TwoPathParallelApp();
  const auto a = *app.FindRequestType("a");
  const auto b = *app.FindRequestType("b");
  const auto gw = *app.FindService("gw");
  const auto um = *app.FindService("um");
  const auto wa = *app.FindService("worker-a");
  const auto leaf = *app.FindService("leaf");

  EXPECT_EQ(app.PathServices(a).size(), 4u);
  const auto shared = app.SharedServices(a, b);
  EXPECT_EQ(shared, (std::vector<ServiceId>{gw, um, leaf}));

  EXPECT_EQ(app.HopIndexOf(a, um), 1u);
  EXPECT_FALSE(app.HopIndexOf(b, wa).has_value());

  EXPECT_TRUE(app.IsUpstreamOn(a, gw, wa));
  EXPECT_TRUE(app.IsUpstreamOn(a, um, leaf));
  EXPECT_FALSE(app.IsUpstreamOn(a, leaf, um));
  EXPECT_FALSE(app.IsUpstreamOn(b, wa, leaf));  // wa not on path b
}

TEST(ApplicationTopology, DisjointPathsShareNothing) {
  Application::Builder b;
  const ServiceId s1 = b.AddService(Svc("s1", 4, 1));
  const ServiceId s2 = b.AddService(Svc("s2", 4, 1));
  const auto ta = b.AddRequestType(Type("a", {{s1, Us(10), 0}}));
  const auto tb = b.AddRequestType(Type("b", {{s2, Us(10), 0}}));
  const Application app = std::move(b).Build();
  EXPECT_TRUE(app.SharedServices(ta, tb).empty());
  EXPECT_EQ(app.PathServices(ta), (std::vector<ServiceId>{s1}));
  EXPECT_EQ(app.PathServices(tb), (std::vector<ServiceId>{s2}));
  // A type always fully shares with itself.
  EXPECT_EQ(app.SharedServices(ta, ta), app.PathServices(ta));
}

TEST(ApplicationTopology, StaticTypeHasEmptyPath) {
  Application::Builder b;
  const ServiceId s = b.AddService(Svc("s", 4, 1));
  const auto dyn = b.AddRequestType(Type("dyn", {{s, Us(10), 0}}));
  RequestTypeSpec st;
  st.name = "static/a.png";
  st.is_static = true;
  const auto stat = b.AddRequestType(st);
  const Application app = std::move(b).Build();
  EXPECT_TRUE(app.PathServices(stat).empty());
  EXPECT_TRUE(app.SharedServices(dyn, stat).empty());
  EXPECT_FALSE(app.HopIndexOf(stat, s).has_value());
}

TEST(ApplicationLookup, IndexedNameLookupsCoverAllEntries) {
  // FindService/FindRequestType are hash-indexed; every registered name must
  // resolve to its own id, and lookups are exact (case-sensitive, no
  // prefixes).
  Application::Builder b;
  std::vector<ServiceId> svcs;
  for (int i = 0; i < 64; ++i) {
    svcs.push_back(b.AddService(Svc("svc-" + std::to_string(i), 4, 1)));
  }
  for (int i = 0; i < 64; ++i) {
    b.AddRequestType(Type("api/t" + std::to_string(i),
                          {{svcs[static_cast<std::size_t>(i)], Us(10), 0}}));
  }
  const Application app = std::move(b).Build();
  for (int i = 0; i < 64; ++i) {
    const auto sid = app.FindService("svc-" + std::to_string(i));
    ASSERT_TRUE(sid.has_value()) << i;
    EXPECT_EQ(app.service(*sid).name, "svc-" + std::to_string(i));
    const auto tid = app.FindRequestType("api/t" + std::to_string(i));
    ASSERT_TRUE(tid.has_value()) << i;
    EXPECT_EQ(app.request_type(*tid).name, "api/t" + std::to_string(i));
  }
  EXPECT_FALSE(app.FindService("svc-64").has_value());
  EXPECT_FALSE(app.FindService("SVC-0").has_value());
  EXPECT_FALSE(app.FindService("svc").has_value());
  EXPECT_FALSE(app.FindRequestType("api/t64").has_value());
  EXPECT_FALSE(app.FindRequestType("").has_value());
}

TEST(ApplicationTopology, PublicDynamicTypesExcludesStatic) {
  Application::Builder b;
  const ServiceId s = b.AddService(Svc("s", 4, 1));
  b.AddRequestType(Type("dyn", {{s, Us(10), 0}}));
  RequestTypeSpec st;
  st.name = "static";
  st.is_static = true;
  b.AddRequestType(st);
  const Application app = std::move(b).Build();
  const auto types = app.PublicDynamicTypes();
  ASSERT_EQ(types.size(), 1u);
  EXPECT_EQ(app.request_type(types[0]).name, "dyn");
}

TEST(ApplicationBuilder, NetLatencyValidation) {
  Application::Builder b;
  EXPECT_THROW(b.SetNetLatency(-1), std::invalid_argument);
}

}  // namespace
}  // namespace grunt::microsvc
