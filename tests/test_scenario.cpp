#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>

#include "scenario/builder.h"
#include "scenario/builtin_apps.h"
#include "scenario/generate.h"
#include "scenario/loader.h"
#include "scenario/registry.h"
#include "scenario/spec.h"
#include "util/json.h"

namespace grunt::scenario {
namespace {

TEST(ScenarioRoundTrip, BuiltinsSurviveDumpParse) {
  for (const auto& builtin : BuiltinScenarios()) {
    const ScenarioSpec spec = builtin.make();
    const std::string text = DumpScenario(spec);
    const ScenarioSpec back = ParseScenario(text);
    EXPECT_EQ(spec, back) << builtin.name;
    // Byte-stable: dump(parse(dump)) == dump.
    EXPECT_EQ(DumpScenario(back), text) << builtin.name;
  }
}

TEST(ScenarioRoundTrip, ApplicationToSpecToApplication) {
  // Application -> spec dump -> parse -> build must be structurally
  // identical to the original (the PR's golden-equivalence contract).
  for (const auto& builtin : BuiltinScenarios()) {
    const ScenarioSpec spec = builtin.make();
    const auto app = BuildApplication(spec.topology);
    const TopologySpec re_spec = TopologyFromApplication(app);
    const auto app2 =
        BuildApplication(ParseTopology(DumpTopology(re_spec)));
    EXPECT_TRUE(microsvc::StructurallyEqual(app, app2)) << builtin.name;
  }
}

TEST(ScenarioRoundTrip, FanOutStageAndPerCallRpcSurvive) {
  TopologySpec t;
  t.name = "fanout";
  SpecBuilder b("fanout");
  const auto gw = b.AddService("gw", 2048, 8, 1);
  const auto l = b.AddService("left", 16, 2, 1);
  const auto r = b.AddService("right", 16, 2, 1);
  microsvc::RpcPolicy rpc;
  rpc.timeout = Ms(50);
  rpc.max_retries = 2;
  b.AddStagedEndpoint(
      "api/fan",
      {StageSpec{{CallSpec{gw, Us(100), 0}}},
       StageSpec{{CallSpec{l, Us(500), 0, rpc}, CallSpec{r, Us(700), 0}}}},
      1.4, 700, 2000);
  t = std::move(b).Build();
  const TopologySpec back = ParseTopology(DumpTopology(t));
  EXPECT_EQ(t, back);
  ASSERT_EQ(back.endpoints[0].stages.size(), 2u);
  EXPECT_EQ(back.endpoints[0].stages[1].calls.size(), 2u);
  ASSERT_TRUE(back.endpoints[0].stages[1].calls[0].rpc.has_value());
  EXPECT_EQ(back.endpoints[0].stages[1].calls[0].rpc->timeout, Ms(50));
  // The loader flattens the fan-out in declaration order.
  const auto app = BuildApplication(back);
  const auto path = app.PathServices(*app.FindRequestType("api/fan"));
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(app.service(path[1]).name, "left");
  EXPECT_EQ(app.service(path[2]).name, "right");
}

TEST(ScenarioParse, RejectsUnknownKeysAndBadValues) {
  ScenarioSpec spec = SocialNetworkScenario();
  std::string text = DumpScenario(spec);
  EXPECT_NO_THROW(ParseScenario(text));

  // A typo'd key anywhere must fail loudly, naming the context.
  const std::string bad = R"({
    "grunt_scenario": 1,
    "topology": {
      "name": "x",
      "services": [{"name": "s", "threds_per_replica": 4}],
      "endpoints": []
    }
  })";
  try {
    ParseScenario(bad);
    FAIL() << "expected unknown-key rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("threds_per_replica"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("service \"s\""), std::string::npos);
  }

  // Keys that have left the format are rejected like typos, by name: the
  // monitor periods and the operators' policy are constants in code, and
  // every closed-loop workload navigates by its mix.
  struct Removed {
    const char* key;
    const char* member;  ///< a top-level member that sets it
  };
  const Removed kRemoved[] = {
      {"fine_granularity_us", R"("operators": {"fine_granularity_us": 1})"},
      {"coarse_granularity_us",
       R"("operators": {"coarse_granularity_us": 1000000})"},
      {"rt_granularity_us", R"("operators": {"rt_granularity_us": 1000000})"},
      {"up_threshold", R"("operators": {"autoscaler": {"up_threshold": 0.7}})"},
      {"down_threshold",
       R"("operators": {"autoscaler": {"down_threshold": 0.3}})"},
      {"window_us", R"("operators": {"autoscaler": {"window_us": 30000000}})"},
      {"cooldown_us",
       R"("operators": {"autoscaler": {"cooldown_us": 30000000}})"},
      {"min_inter_request_us",
       R"("operators": {"ids": {"min_inter_request_us": 3000000}})"},
      {"rate_limit", R"("operators": {"ids": {"rate_limit": 100}})"},
      {"rate_window_us",
       R"("operators": {"ids": {"rate_window_us": 300000000}})"},
      {"saturation_threshold",
       R"("operators": {"ids": {"saturation_threshold": 0.95}})"},
      {"saturation_samples",
       R"("operators": {"ids": {"saturation_samples": 3}})"},
      {"degradation_rt_ms",
       R"("operators": {"ids": {"degradation_rt_ms": 1000}})"},
      {"min_session_requests",
       R"("operators": {"ids": {"min_session_requests": 2}})"},
      {"navigator", R"("workload": {"navigator": "stationary"})"},
  };
  for (const Removed& r : kRemoved) {
    try {
      ParseScenario(
          std::string(R"({"topology": {"services": [], "endpoints": []}, )") +
          r.member + "}");
      ADD_FAILURE() << "expected unknown-key rejection of " << r.key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("unknown key \"") +
                                           r.key + "\""),
                std::string::npos)
          << e.what();
    }
  }

  EXPECT_THROW(ParseScenario(R"({"grunt_scenario": 2, "topology":
      {"services": [], "endpoints": []}})"),
               std::invalid_argument);
  EXPECT_THROW(ParseScenario(R"({"topology": {"services": [],
      "endpoints": [], "service_time_dist": "gaussian"}})"),
               std::invalid_argument);
}

TEST(ScenarioParse, RejectsIntegersOutsideInt32) {
  auto with_threads = [](const std::string& n) {
    return R"({"topology": {"name": "x", "endpoints": [],
        "services": [{"name": "s", "threads_per_replica": )" +
           n + "}]}}";
  };
  EXPECT_EQ(ParseScenario(with_threads("2147483647"))
                .topology.services[0]
                .threads_per_replica,
            2147483647);
  // 2^32 + 1 used to wrap to 1 and pass the builder's > 0 sizing check.
  for (const char* n : {"4294967297", "2147483648", "-2147483649"}) {
    try {
      ParseScenario(with_threads(n));
      FAIL() << "expected out-of-range rejection for " << n;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("threads_per_replica"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioLoader, UnknownServiceReferenceNamesTheEndpoint) {
  SpecBuilder b("broken");
  b.AddService("real", 8, 1, 1);
  b.AddChainEndpoint("api/x", {CallSpec{"ghost", Us(100), 0}}, 1.2, 500,
                     1000);
  const TopologySpec t = std::move(b).Build();
  try {
    BuildApplication(t);
    FAIL() << "expected unknown-service error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("api/x"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ghost"), std::string::npos);
  }
}

TEST(ScenarioLoader, MixValidationAndNavigators) {
  const ScenarioSpec spec = SocialNetworkScenario();
  const auto app = BuildApplication(spec.topology);

  const auto mix = BuildRequestMix(app, spec.workload);
  EXPECT_EQ(mix.types.size(), spec.workload.mix.size());

  WorkloadSpec bad = spec.workload;
  bad.mix.push_back({"no/such/endpoint", 1.0});
  EXPECT_THROW(BuildRequestMix(app, bad), std::invalid_argument);

  // Empty mix = uniform over the public dynamic endpoints.
  WorkloadSpec empty;
  const auto uniform = BuildRequestMix(app, empty);
  EXPECT_EQ(uniform.types.size(), app.PublicDynamicTypes().size());

  const auto stationary = BuildNavigator(app, spec.workload);
  ASSERT_EQ(stationary.transition.size(), stationary.types.size());
  EXPECT_EQ(stationary.transition[0], mix.weights);
}

TEST(ScenarioRegistry, BuiltinsResolveAndUnknownsThrow) {
  EXPECT_GE(BuiltinScenarios().size(), 5u);
  EXPECT_TRUE(MakeBuiltin("socialnetwork").has_value());
  EXPECT_TRUE(MakeBuiltin("mubench-196").has_value());
  EXPECT_FALSE(MakeBuiltin("nope").has_value());
  EXPECT_EQ(ResolveScenario("hotelreservation").topology.services.size(),
            18u);
  EXPECT_THROW(ResolveScenario("not-a-scenario"), std::invalid_argument);
  EXPECT_FALSE(ListScenariosText().empty());
}

TEST(ScenarioRegistry, ResolvesSpecFilesByPath) {
  const std::string path = ::testing::TempDir() + "roundtrip_scenario.json";
  const ScenarioSpec spec = HotelReservationScenario();
  SaveScenarioFile(path, spec);
  const ScenarioSpec loaded = ResolveScenario(path);
  EXPECT_EQ(spec, loaded);
  std::remove(path.c_str());

  // Path-looking arguments that don't exist mention the path.
  try {
    ResolveScenario("/no/such/dir/spec.json");
    FAIL() << "expected load error";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("/no/such/dir/spec.json"),
              std::string::npos);
  }
}

TEST(ScenarioGenerator, DeterministicAndSeedSensitive) {
  const ScenarioSpec a = GenerateMubench(7);
  const ScenarioSpec b = GenerateMubench(7);
  EXPECT_EQ(a, b);
  const ScenarioSpec c = GenerateMubench(8);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.topology.services.size(), 62u);
}

TEST(ScenarioGenerator, HonorsShapeParams) {
  MubenchParams p;
  p.services = 40;
  p.groups = 2;
  p.paths_per_group = 2;
  p.upstream_paths = 2;
  p.singleton_paths = 1;
  const ScenarioSpec spec = GenerateMubench(3, p);
  EXPECT_EQ(spec.topology.services.size(), 40u);
  // 2 groups * 2 paths + 2 admin + 1 singleton endpoints.
  EXPECT_EQ(spec.topology.endpoints.size(), 7u);
  // Admin endpoints are down-weighted in the generated mix.
  int admins = 0;
  for (const auto& m : spec.workload.mix) {
    if (m.endpoint.find("-admin") != std::string::npos) {
      ++admins;
      EXPECT_DOUBLE_EQ(m.weight, 0.25);
    } else {
      EXPECT_DOUBLE_EQ(m.weight, 1.0);
    }
  }
  EXPECT_EQ(admins, 2);

  MubenchParams tiny;
  tiny.services = 4;
  EXPECT_THROW(GenerateMubench(1, tiny), std::invalid_argument);
  MubenchParams impossible;
  impossible.services = 10;
  impossible.groups = 4;
  EXPECT_THROW(GenerateMubench(1, impossible), std::invalid_argument);
}

TEST(ScenarioBuilder, GatewayRuleAndAdmissionStamping) {
  DeploymentParams deploy;
  deploy.max_queue_per_replica = 64;
  deploy.breaker_threshold = 5;
  deploy.breaker_cooldown = Ms(250);
  SpecBuilder b("adm", deploy);
  b.AddService("gw", kGatewayThreads, 8, 1);
  b.AddService("backend", 16, 2, 2);
  const TopologySpec t = std::move(b).Build();
  EXPECT_EQ(t.services[0].max_queue_per_replica, 0);  // gateways never shed
  EXPECT_EQ(t.services[1].max_queue_per_replica, 64);
  EXPECT_EQ(t.services[1].breaker_threshold, 5);
  EXPECT_EQ(t.services[1].breaker_cooldown, Ms(250));
  EXPECT_EQ(t.services[1].max_replicas, 16);  // replicas * 8 default
}

/// One DeploymentParams that sets every knob SpecBuilder stamps.
DeploymentParams EveryStampedKnob() {
  DeploymentParams d;
  d.dist = microsvc::ServiceTimeDist::kDeterministic;
  microsvc::RpcPolicy rpc;
  rpc.timeout = Ms(120);
  d.default_rpc = rpc;
  rpc.timeout = Ms(900);
  d.client_rpc = rpc;
  rpc.timeout = Ms(300);
  rpc.max_retries = 3;
  d.edge_rpc = rpc;
  d.max_queue_per_replica = 24;
  d.breaker_threshold = 6;
  d.breaker_cooldown = Ms(350);
  d.bulkhead_per_downstream = 9;
  d.adaptive_limit.enabled = true;
  d.adaptive_limit.max_limit = 30;
  d.deadline_shed.enabled = true;
  d.deadline_shed.margin = 1.5;
  d.endpoint_deadline = Ms(800);
  return d;
}

/// Asserts `d` landed where DeploymentParams documents it, and nowhere else.
void ExpectDeploymentStamped(const ScenarioSpec& spec,
                             const DeploymentParams& d) {
  const TopologySpec& t = spec.topology;
  EXPECT_EQ(t.dist, d.dist) << spec.name;
  EXPECT_EQ(t.default_rpc, d.default_rpc) << spec.name;
  const microsvc::ServiceSpec unstamped;
  std::size_t gateways = 0;
  for (const auto& svc : t.services) {
    const std::string where = spec.name + "/" + svc.name;
    if (svc.threads_per_replica >= kGatewayThreads) {
      ++gateways;
      EXPECT_EQ(svc.max_queue_per_replica, unstamped.max_queue_per_replica)
          << where;
      EXPECT_EQ(svc.breaker_threshold, unstamped.breaker_threshold) << where;
      EXPECT_EQ(svc.bulkhead_per_downstream,
                unstamped.bulkhead_per_downstream)
          << where;
      EXPECT_EQ(svc.adaptive_limit, unstamped.adaptive_limit) << where;
      EXPECT_EQ(svc.deadline_shed, unstamped.deadline_shed) << where;
      continue;
    }
    EXPECT_EQ(svc.max_queue_per_replica, d.max_queue_per_replica) << where;
    EXPECT_EQ(svc.breaker_threshold, d.breaker_threshold) << where;
    EXPECT_EQ(svc.breaker_cooldown, d.breaker_cooldown) << where;
    EXPECT_EQ(svc.bulkhead_per_downstream, d.bulkhead_per_downstream)
        << where;
    EXPECT_EQ(svc.adaptive_limit, d.adaptive_limit) << where;
    EXPECT_EQ(svc.deadline_shed, d.deadline_shed) << where;
  }
  EXPECT_EQ(gateways, 1u) << spec.name;

  std::size_t dynamic = 0;
  for (const auto& ep : t.endpoints) {
    const std::string where = spec.name + "/" + ep.name;
    if (ep.is_static) {
      EXPECT_EQ(ep.deadline, 0) << where;
      EXPECT_TRUE(ep.stages.empty()) << where;
      continue;
    }
    ++dynamic;
    EXPECT_EQ(ep.deadline, d.endpoint_deadline) << where;
    ASSERT_GE(ep.stages.size(), 2u) << where;
    EXPECT_EQ(ep.stages[0].calls.front().rpc, d.client_rpc) << where;
    EXPECT_EQ(ep.stages[1].calls.front().rpc, d.edge_rpc) << where;
    for (std::size_t k = 2; k < ep.stages.size(); ++k) {
      EXPECT_FALSE(ep.stages[k].calls.front().rpc.has_value()) << where;
    }
  }
  EXPECT_GT(dynamic, 0u) << spec.name;
}

TEST(ScenarioBuilder, OneDeploymentStampForEveryScenario) {
  const DeploymentParams d = EveryStampedKnob();
  ExpectDeploymentStamped(SocialNetworkScenario(d), d);
  ExpectDeploymentStamped(HotelReservationScenario(d), d);
  ExpectDeploymentStamped(GenerateMubench(5, {}, d), d);
}

TEST(ScenarioGenerator, UsersDefaultAndOverride) {
  EXPECT_EQ(GenerateMubench(5).workload.users, 4000);
  DeploymentParams d;
  d.users = 1234;
  EXPECT_EQ(GenerateMubench(5, {}, d).workload.users, 1234);
}

TEST(ScenarioBuilder, ScaledDemandMatchesLegacyArithmetic) {
  EXPECT_EQ(ScaledDemand(9.0, 1.0), Us(9000));
  EXPECT_EQ(ScaledDemand(9.0, 0.95),
            static_cast<SimDuration>(9.0 * 1000.0 / 0.95));
  EXPECT_EQ(ScaledDemand(0.0001, 10.0), 1);  // floors at one tick
}

TEST(ScenarioBuiltins, ParamsValidation) {
  DeploymentParams bad;
  bad.replica_scale = 0;
  EXPECT_THROW(SocialNetworkScenario(bad), std::invalid_argument);
  EXPECT_THROW(HotelReservationScenario(bad), std::invalid_argument);
  DeploymentParams neg;
  neg.capacity_scale = -1;
  EXPECT_THROW(SocialNetworkScenario(neg), std::invalid_argument);
  DeploymentParams q;
  q.queue_scale = 0;
  EXPECT_THROW(SocialNetworkScenario(q), std::invalid_argument);
}

// --- Seeded mutation fuzz of spec loading ---------------------------------
//
// Spec files are outside input (--scenario paths, grunt_spec_check). Every
// byte-level mutant of a shipped spec must either load or fail with the
// loader's two documented errors: json::Error for malformed documents,
// std::invalid_argument for semantic problems. Anything else — another
// exception type, a crash, a sanitizer report — is a loader bug.

std::string ReadSpec(const std::string& name) {
  std::ifstream in(std::string(GRUNT_SPECS_DIR) + "/" + name);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One seeded edit of `text`: replace a byte with a JSON token character,
/// delete a span, duplicate a span, insert a token, or overwrite the next
/// number with a large or negative one.
std::string Mutate(std::string text, std::mt19937_64& rng) {
  static constexpr std::string_view kTokenChars =
      "{}[]:,\"0123456789.eE+- tfn";
  static constexpr std::string_view kTokens[] = {
      "{", "}", "[", "]", ",", ":", "\"", "null", "true", "-", "0", "\"x\": "};
  static constexpr std::string_view kNumbers[] = {
      "4294967297", "2147483648", "-2147483649", "2147483647", "-1", "0",
      "9007199254740993", "1e308", "-1e308", "1e-300", "0.5"};
  const std::size_t pos = rng() % text.size();
  const std::size_t span =
      std::min<std::size_t>(1 + rng() % 32, text.size() - pos);
  switch (rng() % 5) {
    case 0:
      text[pos] = kTokenChars[rng() % kTokenChars.size()];
      break;
    case 1:
      text.erase(pos, span);
      break;
    case 2:
      text.insert(pos + span, text.substr(pos, span));
      break;
    case 3:
      text.insert(pos, kTokens[rng() % std::size(kTokens)]);
      break;
    default: {
      const std::size_t start = text.find_first_of("0123456789", pos);
      if (start == std::string::npos) break;
      const std::size_t end = text.find_first_not_of("0123456789.eE+-", start);
      text.replace(start, end - start, kNumbers[rng() % std::size(kNumbers)]);
      break;
    }
  }
  return text;
}

enum class LoadOutcome { kAccepted, kJsonError, kInvalidArgument };

/// The loading chain a --scenario path goes through, minus the simulation.
LoadOutcome LoadSpecText(const std::string& text) {
  try {
    const ScenarioSpec spec = ParseScenario(text);
    const auto app = BuildApplication(spec.topology);
    BuildNavigator(app, spec.workload);
    return LoadOutcome::kAccepted;
  } catch (const json::Error&) {
    return LoadOutcome::kJsonError;
  } catch (const std::invalid_argument&) {
    return LoadOutcome::kInvalidArgument;
  }
}

TEST(ScenarioFuzz, MutatedShippedSpecsLoadOrFailCleanly) {
  constexpr int kMutantsPerSpec = 100;
  const char* const kSpecs[] = {
      "hotelreservation.json", "mubench-118.json", "mubench-196.json",
      "mubench-62.json",       "socialnetwork.json",
      "socialnetwork_defended.json"};
  int counts[3] = {};
  for (std::size_t s = 0; s < std::size(kSpecs); ++s) {
    const std::string original = ReadSpec(kSpecs[s]);
    ASSERT_FALSE(original.empty()) << kSpecs[s];
    ASSERT_EQ(LoadSpecText(original), LoadOutcome::kAccepted) << kSpecs[s];
    for (int i = 0; i < kMutantsPerSpec; ++i) {
      std::mt19937_64 rng(s * 1000 + static_cast<std::uint64_t>(i));
      const std::string mutant = Mutate(original, rng);
      try {
        ++counts[static_cast<int>(LoadSpecText(mutant))];
      } catch (const std::exception& e) {
        ADD_FAILURE() << kSpecs[s] << " mutant " << i << " threw "
                      << typeid(e).name() << ": " << e.what();
      }
    }
  }
  // The mutants reach all three outcomes, so neither the parser nor the
  // semantic checks are being skipped.
  EXPECT_GT(counts[static_cast<int>(LoadOutcome::kAccepted)], 0);
  EXPECT_GT(counts[static_cast<int>(LoadOutcome::kJsonError)], 0);
  EXPECT_GT(counts[static_cast<int>(LoadOutcome::kInvalidArgument)], 0);
}

TEST(ScenarioFuzz, HostileNestingFailsAsJsonError) {
  EXPECT_EQ(LoadSpecText(std::string(100000, '[') + std::string(100000, ']')),
            LoadOutcome::kJsonError);
}

}  // namespace
}  // namespace grunt::scenario
