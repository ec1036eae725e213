// Golden-equivalence suite for the declarative scenario layer: the legacy
// hand-coded topology builders (copied below from the pre-scenario-layer
// src/apps, with only their parameter types updated) are the reference the
// spec-driven factories must reproduce structurally, across option
// combinations. Also pins the shipped specs/ files to the builtin factories.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "microsvc/application.h"
#include "scenario/builtin_apps.h"
#include "scenario/generate.h"
#include "scenario/loader.h"
#include "scenario/registry.h"
#include "util/rng.h"

namespace grunt {
namespace legacy {

// ---- the pre-scenario-layer builders (reference implementation) ----------

using microsvc::Hop;
using microsvc::RequestTypeSpec;
using microsvc::ServiceId;
using microsvc::ServiceSpec;

SimDuration D(double ms, double capacity_scale) {
  return std::max<SimDuration>(
      1, static_cast<SimDuration>(ms * 1000.0 / capacity_scale));
}

microsvc::Application MakeSocialNetwork(
    const scenario::DeploymentParams& opts) {
  microsvc::Application::Builder b;
  b.SetName("socialnetwork").SetServiceTimeDist(opts.dist).SetNetLatency(
      Us(400));

  const std::int32_t r = opts.replica_scale;
  auto svc = [&](const char* name, std::int32_t threads, std::int32_t cores,
                 std::int32_t replicas) {
    ServiceSpec spec;
    spec.name = name;
    spec.threads_per_replica =
        threads >= 1024 ? threads
                        : std::max<std::int32_t>(
                              4, static_cast<std::int32_t>(
                                     threads * opts.queue_scale));
    spec.cores_per_replica = cores;
    spec.initial_replicas = replicas;
    spec.max_replicas = replicas * 8;
    if (threads < 1024) {
      spec.max_queue_per_replica = opts.max_queue_per_replica;
      spec.breaker_threshold = opts.breaker_threshold;
      spec.breaker_cooldown = opts.breaker_cooldown;
    }
    return b.AddService(spec);
  };
  if (opts.default_rpc) {
    b.SetDefaultRpcPolicy(*opts.default_rpc);
  }

  const ServiceId nginx = svc("nginx", 4096, 16, 1);

  const ServiceId compose_post = svc("compose-post", 20, 4, r);
  const ServiceId unique_id = svc("unique-id", 96, 2, r);
  const ServiceId text_service = svc("text-service", 64, 2, r);
  const ServiceId media_service = svc("media-service", 64, 2, r);
  const ServiceId url_shorten = svc("url-shorten", 64, 2, r);
  const ServiceId user_mention = svc("user-mention", 64, 2, r);
  const ServiceId post_storage = svc("post-storage", 128, 4, r);
  const ServiceId poll_service = svc("poll-service", 64, 2, r);

  const ServiceId home_timeline = svc("home-timeline", 20, 4, r);
  const ServiceId social_graph = svc("social-graph", 64, 2, r);
  const ServiceId media_frontend = svc("media-frontend", 64, 2, r);
  const ServiceId recommender = svc("recommender", 64, 2, r);

  const ServiceId user_timeline = svc("user-timeline", 20, 4, r);
  const ServiceId user_service = svc("user-service", 64, 2, r);
  const ServiceId follow_service = svc("follow-service", 64, 2, r);
  const ServiceId profile_service = svc("profile-service", 64, 2, r);

  const ServiceId media_storage = svc("media-storage", 128, 2, r);
  const ServiceId user_db = svc("user-db", 128, 4, r);
  const ServiceId social_graph_db = svc("social-graph-db", 128, 2, r);
  const ServiceId auth_service = svc("auth-service", 64, 2, r);
  const ServiceId search_service = svc("search-service", 64, 2, r);
  const ServiceId post_cache = svc("post-cache", 128, 2, r);
  const ServiceId timeline_cache = svc("timeline-cache", 128, 2, r);
  const ServiceId user_cache = svc("user-cache", 128, 2, r);
  const ServiceId media_cache = svc("media-cache", 128, 2, r);

  const double cs = opts.capacity_scale;
  auto type = [&](const char* name, std::vector<Hop> hops, double heavy,
                  std::int64_t req_bytes, std::int64_t resp_bytes) {
    RequestTypeSpec spec;
    spec.name = name;
    spec.hops = std::move(hops);
    spec.heavy_multiplier = heavy;
    spec.request_bytes = req_bytes;
    spec.response_bytes = resp_bytes;
    return b.AddRequestType(spec);
  };

  type("compose/text",
       {{nginx, D(0.3, cs), 0},
        {compose_post, D(1.5, cs), D(0.7, cs)},
        {unique_id, D(0.4, cs), 0},
        {text_service, D(9.0, cs), D(1.0, cs)},
        {post_storage, D(1.2, cs), 0}},
       1.6, 900, 1500);
  type("compose/media",
       {{nginx, D(0.3, cs), 0},
        {compose_post, D(1.5, cs), D(0.7, cs)},
        {media_service, D(10.0, cs), D(1.0, cs)},
        {media_storage, D(1.5, cs), 0}},
       1.6, 4000, 1600);
  type("compose/url",
       {{nginx, D(0.3, cs), 0},
        {compose_post, D(1.4, cs), D(0.7, cs)},
        {url_shorten, D(9.0, cs), D(0.8, cs)},
        {post_storage, D(1.0, cs), 0}},
       1.6, 1000, 1400);
  type("compose/mention",
       {{nginx, D(0.3, cs), 0},
        {compose_post, D(1.5, cs), D(0.7, cs)},
        {user_mention, D(9.5, cs), D(0.8, cs)},
        {user_db, D(0.8, cs), 0}},
       1.6, 1100, 1400);
  type("compose/poll",
       {{nginx, D(0.3, cs), 0},
        {compose_post, D(24.0, cs), D(1.5, cs)},
        {poll_service, D(1.0, cs), 0}},
       1.6, 1200, 1300);

  type("home/read",
       {{nginx, D(0.3, cs), 0},
        {home_timeline, D(1.4, cs), D(0.6, cs)},
        {social_graph, D(9.0, cs), D(0.8, cs)},
        {post_cache, D(0.8, cs), 0}},
       1.6, 600, 9000);
  type("home/media",
       {{nginx, D(0.3, cs), 0},
        {home_timeline, D(1.4, cs), D(0.6, cs)},
        {media_frontend, D(10.0, cs), D(0.8, cs)},
        {media_cache, D(0.8, cs), 0}},
       1.6, 600, 14000);
  type("home/recommend",
       {{nginx, D(0.3, cs), 0},
        {home_timeline, D(1.4, cs), D(0.6, cs)},
        {recommender, D(11.0, cs), D(0.8, cs)},
        {user_cache, D(0.6, cs), 0}},
       1.6, 700, 7000);

  type("user/read",
       {{nginx, D(0.3, cs), 0},
        {user_timeline, D(1.4, cs), D(0.6, cs)},
        {user_service, D(9.0, cs), D(0.8, cs)},
        {timeline_cache, D(0.8, cs), 0}},
       1.6, 600, 8000);
  type("user/follow",
       {{nginx, D(0.3, cs), 0},
        {user_timeline, D(1.4, cs), D(0.6, cs)},
        {follow_service, D(9.5, cs), D(0.8, cs)},
        {social_graph_db, D(0.8, cs), 0}},
       1.6, 700, 1200);
  type("user/profile",
       {{nginx, D(0.3, cs), 0},
        {user_timeline, D(1.4, cs), D(0.6, cs)},
        {profile_service, D(10.0, cs), D(0.8, cs)},
        {user_db, D(0.7, cs), 0}},
       1.6, 600, 6000);

  type("auth/login",
       {{nginx, D(0.3, cs), 0},
        {auth_service, D(6.0, cs), D(0.8, cs)},
        {user_cache, D(0.6, cs), 0}},
       1.5, 500, 900);
  type("search",
       {{nginx, D(0.3, cs), 0},
        {search_service, D(8.0, cs), D(0.8, cs)},
        {post_cache, D(0.7, cs), 0}},
       1.6, 600, 5000);

  {
    RequestTypeSpec spec;
    spec.name = "static/logo.png";
    spec.is_static = true;
    spec.request_bytes = 400;
    spec.response_bytes = 25000;
    b.AddRequestType(spec);
  }

  return std::move(b).Build();
}

microsvc::Application MakeHotelReservation(
    const scenario::DeploymentParams& opts) {
  microsvc::Application::Builder b;
  b.SetName("hotelreservation")
      .SetServiceTimeDist(opts.dist)
      .SetNetLatency(Us(400));

  const std::int32_t r = opts.replica_scale;
  auto svc = [&](const char* name, std::int32_t threads, std::int32_t cores,
                 std::int32_t replicas) {
    ServiceSpec spec;
    spec.name = name;
    spec.threads_per_replica = threads;
    spec.cores_per_replica = cores;
    spec.initial_replicas = replicas;
    spec.max_replicas = replicas * 8;
    if (threads < 1024) {
      spec.max_queue_per_replica = opts.max_queue_per_replica;
      spec.breaker_threshold = opts.breaker_threshold;
      spec.breaker_cooldown = opts.breaker_cooldown;
    }
    return b.AddService(spec);
  };
  if (opts.default_rpc) {
    b.SetDefaultRpcPolicy(*opts.default_rpc);
  }

  const ServiceId frontend = svc("frontend", 4096, 16, 1);

  const ServiceId search = svc("search", 20, 4, r);
  const ServiceId geo = svc("geo", 64, 2, r);
  const ServiceId rate = svc("rate", 64, 2, r);
  const ServiceId recommendation = svc("recommendation", 64, 2, r);
  const ServiceId hotel_db = svc("hotel-db", 128, 4, r);
  const ServiceId geo_cache = svc("geo-cache", 128, 2, r);
  const ServiceId rate_cache = svc("rate-cache", 128, 2, r);

  const ServiceId reservation = svc("reservation", 20, 4, r);
  const ServiceId availability = svc("availability", 64, 2, r);
  const ServiceId payment = svc("payment", 64, 2, r);
  const ServiceId booking_records = svc("booking-records", 64, 2, r);
  const ServiceId booking_db = svc("booking-db", 128, 4, r);
  const ServiceId payment_gateway = svc("payment-gateway", 128, 2, r);

  const ServiceId user = svc("user", 64, 2, r);
  const ServiceId profile = svc("profile", 64, 2, r);
  const ServiceId user_db = svc("user-db", 128, 2, r);
  const ServiceId profile_db = svc("profile-db", 128, 2, r);

  const double cs = opts.capacity_scale;
  auto type = [&](const char* name, std::vector<Hop> hops, double heavy,
                  std::int64_t req_bytes, std::int64_t resp_bytes) {
    RequestTypeSpec spec;
    spec.name = name;
    spec.hops = std::move(hops);
    spec.heavy_multiplier = heavy;
    spec.request_bytes = req_bytes;
    spec.response_bytes = resp_bytes;
    return b.AddRequestType(spec);
  };

  type("search/nearby",
       {{frontend, D(0.3, cs), 0},
        {search, D(1.5, cs), D(0.6, cs)},
        {geo, D(9.0, cs), D(0.8, cs)},
        {geo_cache, D(0.8, cs), 0}},
       1.6, 700, 9000);
  type("search/rates",
       {{frontend, D(0.3, cs), 0},
        {search, D(1.5, cs), D(0.6, cs)},
        {rate, D(10.0, cs), D(0.8, cs)},
        {rate_cache, D(0.8, cs), 0}},
       1.6, 700, 7000);
  type("search/recommend",
       {{frontend, D(0.3, cs), 0},
        {search, D(1.5, cs), D(0.6, cs)},
        {recommendation, D(10.5, cs), D(0.8, cs)},
        {hotel_db, D(0.8, cs), 0}},
       1.6, 700, 8000);
  type("search/complex",
       {{frontend, D(0.3, cs), 0},
        {search, D(24.0, cs), D(1.5, cs)},
        {hotel_db, D(1.0, cs), 0}},
       1.6, 900, 11000);

  type("reserve/availability",
       {{frontend, D(0.3, cs), 0},
        {reservation, D(1.5, cs), D(0.6, cs)},
        {availability, D(9.5, cs), D(0.8, cs)},
        {booking_db, D(0.8, cs), 0}},
       1.6, 800, 3000);
  type("reserve/book",
       {{frontend, D(0.3, cs), 0},
        {reservation, D(1.6, cs), D(0.7, cs)},
        {payment, D(10.0, cs), D(0.8, cs)},
        {payment_gateway, D(1.0, cs), 0}},
       1.6, 1200, 1500);
  type("reserve/history",
       {{frontend, D(0.3, cs), 0},
        {reservation, D(1.5, cs), D(0.6, cs)},
        {booking_records, D(9.0, cs), D(0.8, cs)},
        {booking_db, D(0.7, cs), 0}},
       1.6, 600, 5000);

  type("user/login",
       {{frontend, D(0.3, cs), 0},
        {user, D(7.0, cs), D(0.8, cs)},
        {user_db, D(0.6, cs), 0}},
       1.5, 500, 900);
  type("profile/view",
       {{frontend, D(0.3, cs), 0},
        {profile, D(8.0, cs), D(0.8, cs)},
        {profile_db, D(0.7, cs), 0}},
       1.6, 500, 6000);

  {
    RequestTypeSpec st;
    st.name = "static/map-tile.png";
    st.is_static = true;
    st.request_bytes = 400;
    st.response_bytes = 60000;
    b.AddRequestType(st);
  }

  return std::move(b).Build();
}

microsvc::Application MakeMuBench(std::uint64_t seed,
                                  const scenario::MubenchParams& shape,
                                  const scenario::DeploymentParams& deploy) {
  RngStream rng(seed, "mubench.topology");
  microsvc::Application::Builder b;
  b.SetName("mubench-" + std::to_string(shape.services) + "-s" +
            std::to_string(seed))
      .SetServiceTimeDist(deploy.dist)
      .SetNetLatency(Us(400));

  std::int32_t remaining = shape.services;
  auto svc = [&](const std::string& name, std::int32_t threads,
                 std::int32_t cores) {
    ServiceSpec spec;
    spec.name = name;
    spec.threads_per_replica = threads;
    spec.cores_per_replica = cores;
    spec.initial_replicas = 1;
    spec.max_replicas = 8;
    if (threads < 1024) {
      spec.max_queue_per_replica = deploy.max_queue_per_replica;
      spec.breaker_threshold = deploy.breaker_threshold;
      spec.breaker_cooldown = deploy.breaker_cooldown;
    }
    --remaining;
    return b.AddService(spec);
  };
  if (deploy.default_rpc) {
    b.SetDefaultRpcPolicy(*deploy.default_rpc);
  }

  const ServiceId gateway = svc("gateway", 4096, 16);

  auto light_demand = [&] { return Us(300 + rng.NextInt(0, 900)); };
  auto heavy_demand = [&] { return Us(8000 + rng.NextInt(0, 3500)); };

  auto add_type = [&](const std::string& name, std::vector<Hop> hops) {
    RequestTypeSpec spec;
    spec.name = name;
    spec.hops = std::move(hops);
    spec.heavy_multiplier = 1.6;
    spec.request_bytes = 500 + rng.NextInt(0, 1500);
    spec.response_bytes = 1000 + rng.NextInt(0, 9000);
    return b.AddRequestType(spec);
  };

  for (std::int32_t g = 0; g < shape.groups; ++g) {
    const std::string gp = "g" + std::to_string(g);
    const ServiceId um = svc(gp + "-frontend", 20, 4);
    for (std::int32_t p = 0; p < shape.paths_per_group; ++p) {
      const std::string pp = gp + "-p" + std::to_string(p);
      const ServiceId worker = svc(pp + "-worker", 64, 2);
      const ServiceId leaf = svc(pp + "-store", 128, 2);
      std::vector<Hop> hops;
      hops.push_back({gateway, Us(300), 0});
      hops.push_back({um, Us(1400), Us(600)});
      if (rng.NextBool(0.5) && remaining > shape.groups) {
        const ServiceId mid = svc(pp + "-mid", 96, 2);
        hops.push_back({mid, light_demand(), 0});
      }
      hops.push_back({worker, heavy_demand(), Us(800)});
      hops.push_back({leaf, light_demand(), 0});
      add_type("api/" + pp, std::move(hops));
    }
    if (g < shape.upstream_paths) {
      const ServiceId leaf = svc(gp + "-audit", 128, 2);
      add_type("api/" + gp + "-admin",
               {{gateway, Us(300), 0},
                {um, Us(24000), Us(1200)},
                {leaf, light_demand(), 0}});
    }
  }

  for (std::int32_t s = 0; s < shape.singleton_paths; ++s) {
    const std::string sp = "solo" + std::to_string(s);
    const ServiceId worker = svc(sp + "-worker", 64, 2);
    const ServiceId leaf = svc(sp + "-store", 128, 2);
    add_type("api/" + sp, {{gateway, Us(300), 0},
                           {worker, heavy_demand(), Us(800)},
                           {leaf, light_demand(), 0}});
  }

  std::int32_t pad = 0;
  while (remaining > 0) {
    svc("internal-" + std::to_string(pad++), 32, 1);
  }

  return std::move(b).Build();
}

}  // namespace legacy

namespace {

scenario::DeploymentParams Sized(std::int32_t replica_scale,
                                 double capacity_scale,
                                 microsvc::ServiceTimeDist dist,
                                 double queue_scale = 1.0) {
  scenario::DeploymentParams p;
  p.replica_scale = replica_scale;
  p.capacity_scale = capacity_scale;
  p.dist = dist;
  p.queue_scale = queue_scale;
  return p;
}

TEST(ScenarioEquivalence, SocialNetworkDefaultAndScaledOptions) {
  using microsvc::ServiceTimeDist;
  const scenario::DeploymentParams combos[] = {
      {},
      Sized(2, 1.0, ServiceTimeDist::kExponential),
      Sized(1, 0.95, ServiceTimeDist::kExponential),
      Sized(2, 1.05, ServiceTimeDist::kDeterministic, 0.5),
      Sized(1, 1.0, ServiceTimeDist::kExponential, 2.0),
  };
  for (const auto& opts : combos) {
    EXPECT_TRUE(microsvc::StructurallyEqual(
        legacy::MakeSocialNetwork(opts),
        scenario::BuildApplication(
            scenario::SocialNetworkScenario(opts).topology)))
        << "replica=" << opts.replica_scale << " cap=" << opts.capacity_scale
        << " queue=" << opts.queue_scale;
  }
}

TEST(ScenarioEquivalence, SocialNetworkWithResilienceDeployed) {
  scenario::DeploymentParams opts;
  opts.max_queue_per_replica = 48;
  opts.breaker_threshold = 4;
  opts.breaker_cooldown = Ms(750);
  microsvc::RpcPolicy rpc;
  rpc.timeout = Ms(200);
  rpc.max_retries = 1;
  opts.default_rpc = rpc;
  EXPECT_TRUE(microsvc::StructurallyEqual(
      legacy::MakeSocialNetwork(opts),
      scenario::BuildApplication(
          scenario::SocialNetworkScenario(opts).topology)));
}

TEST(ScenarioEquivalence, HotelReservationAcrossOptions) {
  using microsvc::ServiceTimeDist;
  const scenario::DeploymentParams combos[] = {
      {},
      Sized(2, 1.0, ServiceTimeDist::kExponential),
      Sized(1, 0.95, ServiceTimeDist::kDeterministic),
  };
  for (const auto& opts : combos) {
    EXPECT_TRUE(microsvc::StructurallyEqual(
        legacy::MakeHotelReservation(opts),
        scenario::BuildApplication(
            scenario::HotelReservationScenario(opts).topology)))
        << "replica=" << opts.replica_scale << " cap=" << opts.capacity_scale;
  }
  scenario::DeploymentParams res;
  res.max_queue_per_replica = 40;
  res.breaker_threshold = 3;
  EXPECT_TRUE(microsvc::StructurallyEqual(
      legacy::MakeHotelReservation(res),
      scenario::BuildApplication(
          scenario::HotelReservationScenario(res).topology)));
}

TEST(ScenarioEquivalence, MuBenchAcrossSeedsAndShapes) {
  for (const std::uint64_t seed : {1ull, 7ull, 62ull, 118ull, 196ull}) {
    EXPECT_TRUE(microsvc::StructurallyEqual(
        legacy::MakeMuBench(seed, {}, {}),
        scenario::BuildApplication(scenario::GenerateMubench(seed).topology)))
        << "seed=" << seed;
  }
  // Paper scales (Table IV) + a resilience deployment.
  for (const std::int32_t services : {62, 118, 196}) {
    scenario::MubenchParams shape;
    shape.services = services;
    scenario::DeploymentParams deploy;
    deploy.max_queue_per_replica = 32;
    const auto seed = static_cast<std::uint64_t>(services);
    EXPECT_TRUE(microsvc::StructurallyEqual(
        legacy::MakeMuBench(seed, shape, deploy),
        scenario::BuildApplication(
            scenario::GenerateMubench(seed, shape, deploy).topology)))
        << "services=" << services;
  }
}

TEST(ScenarioEquivalence, ShippedSpecFilesMatchBuiltins) {
  const std::string dir = GRUNT_SPECS_DIR;
  const struct {
    const char* file;
    const char* builtin;
  } cases[] = {
      {"socialnetwork.json", "socialnetwork"},
      {"hotelreservation.json", "hotelreservation"},
      {"mubench-62.json", "mubench-62"},
      {"mubench-118.json", "mubench-118"},
      {"mubench-196.json", "mubench-196"},
      {"socialnetwork_defended.json", "socialnetwork_defended"},
  };
  for (const auto& c : cases) {
    const auto from_file = scenario::LoadScenarioFile(dir + "/" + c.file);
    const auto builtin = scenario::MakeBuiltin(c.builtin);
    ASSERT_TRUE(builtin.has_value()) << c.builtin;
    EXPECT_EQ(from_file, *builtin) << c.file;
    EXPECT_TRUE(microsvc::StructurallyEqual(
        scenario::BuildApplication(from_file.topology),
        scenario::BuildApplication(builtin->topology)))
        << c.file;
  }
}

TEST(ScenarioEquivalence, DefendedMechanismsRoundTripPerToggle) {
  // Each mechanism the defense bench toggles must survive the JSON dump ->
  // parse -> build path unchanged: spec equality AND structural equality of
  // the built application, so bench_defense_degradation's matrix and a
  // file-driven deployment of the same config cannot drift apart.
  const scenario::DeploymentParams ref = scenario::DefendedDeployment();
  scenario::DeploymentParams timeouts;
  timeouts.default_rpc = ref.default_rpc;
  timeouts.edge_rpc = ref.edge_rpc;
  timeouts.client_rpc = ref.client_rpc;
  timeouts.endpoint_deadline = ref.endpoint_deadline;
  scenario::DeploymentParams bulkhead = timeouts;
  bulkhead.bulkhead_per_downstream = ref.bulkhead_per_downstream;
  bulkhead.max_queue_per_replica = ref.max_queue_per_replica;
  scenario::DeploymentParams adaptive = timeouts;
  adaptive.adaptive_limit = ref.adaptive_limit;
  scenario::DeploymentParams shed = timeouts;
  shed.deadline_shed = ref.deadline_shed;

  const struct {
    const char* name;
    const scenario::DeploymentParams& params;
  } cases[] = {{"timeouts", timeouts},
               {"bulkhead", bulkhead},
               {"adaptive", adaptive},
               {"shed", shed},
               {"full", ref}};
  for (const auto& c : cases) {
    const auto spec = scenario::SocialNetworkScenario(c.params);
    const auto reparsed = scenario::ParseScenario(scenario::DumpScenario(spec));
    EXPECT_EQ(spec, reparsed) << c.name;
    EXPECT_TRUE(microsvc::StructurallyEqual(
        scenario::BuildApplication(spec.topology),
        scenario::BuildApplication(reparsed.topology)))
        << c.name;
  }
}

TEST(ScenarioEquivalence, ShippedSocialNetworkDrivesLegacyFactoryShape) {
  // The shipped file, loaded and built, is the same application the legacy
  // reference builder returns at defaults — specs/ and the pre-scenario
  // topology can't drift apart.
  const auto spec =
      scenario::LoadScenarioFile(std::string(GRUNT_SPECS_DIR) +
                                 "/socialnetwork.json");
  EXPECT_TRUE(microsvc::StructurallyEqual(
      scenario::BuildApplication(spec.topology),
      legacy::MakeSocialNetwork({})));
}

}  // namespace
}  // namespace grunt
