#include "scenario/builtin_apps.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "scenario/builder.h"

namespace grunt::scenario {

namespace {

WorkloadSpec ClosedLoop(std::int32_t users,
                        std::vector<MixEntrySpec> mix) {
  WorkloadSpec wl;
  wl.kind = WorkloadSpec::Kind::kClosedLoop;
  wl.users = users;
  wl.mix = std::move(mix);
  return wl;
}

}  // namespace

ScenarioSpec SocialNetworkScenario(const DeploymentParams& p) {
  if (p.replica_scale < 1 || p.capacity_scale <= 0 || p.queue_scale <= 0) {
    throw std::invalid_argument("SocialNetworkScenario: bad params");
  }
  SpecBuilder b("socialnetwork", p);
  b.SetNetLatency(Us(400));

  const std::int32_t r = p.replica_scale;
  // queue_scale applies to backend services; the gateway keeps its huge
  // pool (it is never the exploited queue).
  auto svc = [&](const char* name, std::int32_t threads, std::int32_t cores,
                 std::int32_t replicas) {
    const std::int32_t eff =
        threads >= kGatewayThreads
            ? threads
            : std::max<std::int32_t>(
                  4, static_cast<std::int32_t>(threads * p.queue_scale));
    return b.AddService(name, eff, cores, replicas);
  };

  // --- gateway (well provisioned: overflow never reaches its slot pool) ---
  const auto nginx = svc("nginx", 4096, 16, 1);

  // --- compose fan-in (dependency group A; shared UM: compose-post) ---
  const auto compose_post = svc("compose-post", 20, 4, r);
  const auto unique_id = svc("unique-id", 96, 2, r);
  const auto text_service = svc("text-service", 64, 2, r);
  const auto media_service = svc("media-service", 64, 2, r);
  const auto url_shorten = svc("url-shorten", 64, 2, r);
  const auto user_mention = svc("user-mention", 64, 2, r);
  const auto post_storage = svc("post-storage", 128, 4, r);
  const auto poll_service = svc("poll-service", 64, 2, r);

  // --- home-timeline read fan-in (group B; shared UM: home-timeline) ---
  const auto home_timeline = svc("home-timeline", 20, 4, r);
  const auto social_graph = svc("social-graph", 64, 2, r);
  const auto media_frontend = svc("media-frontend", 64, 2, r);
  const auto recommender = svc("recommender", 64, 2, r);

  // --- user-timeline read fan-in (group C; shared UM: user-timeline) ---
  const auto user_timeline = svc("user-timeline", 20, 4, r);
  const auto user_service = svc("user-service", 64, 2, r);
  const auto follow_service = svc("follow-service", 64, 2, r);
  const auto profile_service = svc("profile-service", 64, 2, r);

  // --- storage / auxiliary backends ---
  const auto media_storage = svc("media-storage", 128, 2, r);
  const auto user_db = svc("user-db", 128, 4, r);
  const auto social_graph_db = svc("social-graph-db", 128, 2, r);
  const auto auth_service = svc("auth-service", 64, 2, r);
  const auto search_service = svc("search-service", 64, 2, r);
  const auto post_cache = svc("post-cache", 128, 2, r);
  const auto timeline_cache = svc("timeline-cache", 128, 2, r);
  const auto user_cache = svc("user-cache", 128, 2, r);
  const auto media_cache = svc("media-cache", 128, 2, r);

  const double cs = p.capacity_scale;
  auto D = [cs](double ms) { return ScaledDemand(ms, cs); };

  // Group A: compose paths. compose-post is the shared upstream service;
  // each variant bottlenecks on a different downstream worker.
  b.AddChainEndpoint("compose/text",
                     {{nginx, D(0.3), 0},
                      {compose_post, D(1.5), D(0.7)},
                      {unique_id, D(0.4), 0},
                      {text_service, D(9.0), D(1.0)},
                      {post_storage, D(1.2), 0}},
                     1.6, 900, 1500);
  b.AddChainEndpoint("compose/media",
                     {{nginx, D(0.3), 0},
                      {compose_post, D(1.5), D(0.7)},
                      {media_service, D(10.0), D(1.0)},
                      {media_storage, D(1.5), 0}},
                     1.6, 4000, 1600);
  b.AddChainEndpoint("compose/url",
                     {{nginx, D(0.3), 0},
                      {compose_post, D(1.4), D(0.7)},
                      {url_shorten, D(9.0), D(0.8)},
                      {post_storage, D(1.0), 0}},
                     1.6, 1000, 1400);
  b.AddChainEndpoint("compose/mention",
                     {{nginx, D(0.3), 0},
                      {compose_post, D(1.5), D(0.7)},
                      {user_mention, D(9.5), D(0.8)},
                      {user_db, D(0.8), 0}},
                     1.6, 1100, 1400);
  // The "upstream" path of the group: its bottleneck is compose-post itself,
  // giving it a sequential dependency over the other compose paths (it can
  // trigger an execution blocking effect directly, Definition II).
  b.AddChainEndpoint("compose/poll",
                     {{nginx, D(0.3), 0},
                      {compose_post, D(24.0), D(1.5)},
                      {poll_service, D(1.0), 0}},
                     1.6, 1200, 1300);

  // Group B: home-timeline reads.
  b.AddChainEndpoint("home/read",
                     {{nginx, D(0.3), 0},
                      {home_timeline, D(1.4), D(0.6)},
                      {social_graph, D(9.0), D(0.8)},
                      {post_cache, D(0.8), 0}},
                     1.6, 600, 9000);
  b.AddChainEndpoint("home/media",
                     {{nginx, D(0.3), 0},
                      {home_timeline, D(1.4), D(0.6)},
                      {media_frontend, D(10.0), D(0.8)},
                      {media_cache, D(0.8), 0}},
                     1.6, 600, 14000);
  b.AddChainEndpoint("home/recommend",
                     {{nginx, D(0.3), 0},
                      {home_timeline, D(1.4), D(0.6)},
                      {recommender, D(11.0), D(0.8)},
                      {user_cache, D(0.6), 0}},
                     1.6, 700, 7000);

  // Group C: user-timeline reads.
  b.AddChainEndpoint("user/read",
                     {{nginx, D(0.3), 0},
                      {user_timeline, D(1.4), D(0.6)},
                      {user_service, D(9.0), D(0.8)},
                      {timeline_cache, D(0.8), 0}},
                     1.6, 600, 8000);
  b.AddChainEndpoint("user/follow",
                     {{nginx, D(0.3), 0},
                      {user_timeline, D(1.4), D(0.6)},
                      {follow_service, D(9.5), D(0.8)},
                      {social_graph_db, D(0.8), 0}},
                     1.6, 700, 1200);
  b.AddChainEndpoint("user/profile",
                     {{nginx, D(0.3), 0},
                      {user_timeline, D(1.4), D(0.6)},
                      {profile_service, D(10.0), D(0.8)},
                      {user_db, D(0.7), 0}},
                     1.6, 600, 6000);

  // Independent singleton paths: share only nginx / leaf storage with the
  // groups, and the gateway is too well provisioned to overflow.
  b.AddChainEndpoint("auth/login",
                     {{nginx, D(0.3), 0},
                      {auth_service, D(6.0), D(0.8)},
                      {user_cache, D(0.6), 0}},
                     1.5, 500, 900);
  b.AddChainEndpoint("search",
                     {{nginx, D(0.3), 0},
                      {search_service, D(8.0), D(0.8)},
                      {post_cache, D(0.7), 0}},
                     1.6, 600, 5000);

  // Static asset served at the edge; excluded by the profiler.
  b.AddStaticEndpoint("static/logo.png", 400, 25000);

  ScenarioSpec scenario;
  scenario.name = "socialnetwork";
  scenario.description =
      "DeathStarBench SocialNetwork under closed-loop users (paper Sec V-B "
      "reference deployment)";
  scenario.topology = std::move(b).Build();
  // Read-leaning social-media mix, balanced so that at the reference
  // workload (7000 users ~= 1000 req/s) every worker bottleneck sits at a
  // realistic 35-55% utilization (Sec V-B: clouds run below saturation).
  scenario.workload = ClosedLoop(p.users > 0 ? p.users : 7000,
                                 {{"home/read", 10},
                                  {"home/media", 9},
                                  {"home/recommend", 8},
                                  {"user/read", 9},
                                  {"user/follow", 8},
                                  {"user/profile", 8},
                                  {"compose/text", 9},
                                  {"compose/media", 8},
                                  {"compose/url", 7},
                                  {"compose/mention", 7},
                                  {"compose/poll", 6},
                                  {"auth/login", 4},
                                  {"search", 3},
                                  {"static/logo.png", 1}});
  return scenario;
}

ScenarioSpec HotelReservationScenario(const DeploymentParams& p) {
  if (p.replica_scale < 1 || p.capacity_scale <= 0) {
    throw std::invalid_argument("HotelReservationScenario: bad params");
  }
  SpecBuilder b("hotelreservation", p);
  b.SetNetLatency(Us(400));

  const std::int32_t r = p.replica_scale;
  auto svc = [&](const char* name, std::int32_t threads, std::int32_t cores,
                 std::int32_t replicas) {
    return b.AddService(name, threads, cores, replicas);
  };

  const auto frontend = svc("frontend", 4096, 16, 1);

  // Search fan-in (group A; shared UM: search).
  const auto search = svc("search", 20, 4, r);
  const auto geo = svc("geo", 64, 2, r);
  const auto rate = svc("rate", 64, 2, r);
  const auto recommendation = svc("recommendation", 64, 2, r);
  const auto hotel_db = svc("hotel-db", 128, 4, r);
  const auto geo_cache = svc("geo-cache", 128, 2, r);
  const auto rate_cache = svc("rate-cache", 128, 2, r);

  // Reservation fan-in (group B; shared UM: reservation).
  const auto reservation = svc("reservation", 20, 4, r);
  const auto availability = svc("availability", 64, 2, r);
  const auto payment = svc("payment", 64, 2, r);
  const auto booking_records = svc("booking-records", 64, 2, r);
  const auto booking_db = svc("booking-db", 128, 4, r);
  const auto payment_gateway = svc("payment-gateway", 128, 2, r);

  // Independent paths + backends.
  const auto user = svc("user", 64, 2, r);
  const auto profile = svc("profile", 64, 2, r);
  const auto user_db = svc("user-db", 128, 2, r);
  const auto profile_db = svc("profile-db", 128, 2, r);

  const double cs = p.capacity_scale;
  auto D = [cs](double ms) { return ScaledDemand(ms, cs); };

  // Group A: searches (distinct worker bottlenecks behind `search`).
  b.AddChainEndpoint("search/nearby",
                     {{frontend, D(0.3), 0},
                      {search, D(1.5), D(0.6)},
                      {geo, D(9.0), D(0.8)},
                      {geo_cache, D(0.8), 0}},
                     1.6, 700, 9000);
  b.AddChainEndpoint("search/rates",
                     {{frontend, D(0.3), 0},
                      {search, D(1.5), D(0.6)},
                      {rate, D(10.0), D(0.8)},
                      {rate_cache, D(0.8), 0}},
                     1.6, 700, 7000);
  b.AddChainEndpoint("search/recommend",
                     {{frontend, D(0.3), 0},
                      {search, D(1.5), D(0.6)},
                      {recommendation, D(10.5), D(0.8)},
                      {hotel_db, D(0.8), 0}},
                     1.6, 700, 8000);
  // The "upstream" member: a complex multi-criteria search that bottlenecks
  // on the search frontend itself (sequential dependency source).
  b.AddChainEndpoint("search/complex",
                     {{frontend, D(0.3), 0},
                      {search, D(24.0), D(1.5)},
                      {hotel_db, D(1.0), 0}},
                     1.6, 900, 11000);

  // Group B: reservations.
  b.AddChainEndpoint("reserve/availability",
                     {{frontend, D(0.3), 0},
                      {reservation, D(1.5), D(0.6)},
                      {availability, D(9.5), D(0.8)},
                      {booking_db, D(0.8), 0}},
                     1.6, 800, 3000);
  b.AddChainEndpoint("reserve/book",
                     {{frontend, D(0.3), 0},
                      {reservation, D(1.6), D(0.7)},
                      {payment, D(10.0), D(0.8)},
                      {payment_gateway, D(1.0), 0}},
                     1.6, 1200, 1500);
  b.AddChainEndpoint("reserve/history",
                     {{frontend, D(0.3), 0},
                      {reservation, D(1.5), D(0.6)},
                      {booking_records, D(9.0), D(0.8)},
                      {booking_db, D(0.7), 0}},
                     1.6, 600, 5000);

  // Independent singleton paths.
  b.AddChainEndpoint("user/login",
                     {{frontend, D(0.3), 0},
                      {user, D(7.0), D(0.8)},
                      {user_db, D(0.6), 0}},
                     1.5, 500, 900);
  b.AddChainEndpoint("profile/view",
                     {{frontend, D(0.3), 0},
                      {profile, D(8.0), D(0.8)},
                      {profile_db, D(0.7), 0}},
                     1.6, 500, 6000);

  b.AddStaticEndpoint("static/map-tile.png", 400, 60000);

  ScenarioSpec scenario;
  scenario.name = "hotelreservation";
  scenario.description =
      "HotelReservation-style travel-booking topology (two fan-in "
      "dependency groups), browse-heavy closed-loop users";
  scenario.topology = std::move(b).Build();
  // Travel sites are browse-heavy: many searches per booking.
  scenario.workload = ClosedLoop(p.users > 0 ? p.users : 5000,
                                 {{"search/nearby", 16},
                                  {"search/rates", 14},
                                  {"search/recommend", 12},
                                  {"search/complex", 6},
                                  {"reserve/availability", 13},
                                  {"reserve/book", 8},
                                  {"reserve/history", 10},
                                  {"user/login", 6},
                                  {"profile/view", 8},
                                  {"static/map-tile.png", 3}});
  return scenario;
}

DeploymentParams DefendedDeployment(DeploymentParams p) {
  // The reference anti-Grunt stack. Values are calibrated against
  // bench_defense_degradation's acceptance bar (amplification < 3x at
  // within-5% legitimate goodput on the EC2-7K SocialNetwork campaign).
  // The load-bearing idea is "retry at the edge, fail fast in the core":
  //  * interior edges never retry and carry a short per-attempt timeout, so
  //    a rejection or millibottleneck at a worker frees the caller's thread
  //    immediately instead of pinning it through backoff cycles — in-slot
  //    retries are exactly the execution dependency the attack exploits,
  //    recursively re-created by the fault-tolerance layer;
  //  * only the gateway edge retries (its pool is too large to pin), with
  //    backoffs long enough to bridge a burst's drain, so legit calls
  //    caught in a millibottleneck land on a later attempt;
  //  * per-downstream bulkheads cap how much of a pool one edge can take;
  //  * the AIMD limiter clamps the attacked edge once RTTs leave the
  //    nominal band. nominal_rtt anchors the congestion test: the learned
  //    floor under exponential service times is a lucky near-zero draw,
  //    which would make honest RTTs read as congested;
  //  * deadline shedding drops doomed work before it consumes a slot,
  //    deepest-first, against a 1 s end-to-end budget.
  if (!p.default_rpc) {
    microsvc::RpcPolicy rpc;
    rpc.timeout = Ms(150);
    rpc.max_retries = 0;  // fail fast: never retry while holding a slot
    rpc.nominal_rtt = Ms(20);  // congested above tolerance x this
    p.default_rpc = rpc;
  }
  if (!p.edge_rpc) {
    microsvc::RpcPolicy rpc;
    rpc.timeout = Ms(250);  // covers a fail-fast subtree attempt
    rpc.max_retries = 4;
    rpc.backoff_base = Ms(15);
    rpc.backoff_multiplier = 2.0;
    rpc.jitter = 0.5;
    rpc.nominal_rtt = Ms(20);
    p.edge_rpc = rpc;
  }
  if (!p.client_rpc) {
    microsvc::RpcPolicy rpc;
    rpc.timeout = Sec(1);  // the user outlasts the gateway's retry span
    rpc.max_retries = 0;
    p.client_rpc = rpc;
  }
  p.bulkhead_per_downstream = 12;
  // The bulkhead's second half: a bounded arrival queue. Without it, a
  // caller timeout leaves the queued arrival behind as orphan work, so a
  // burst's overflow parks in the shared upstream's unbounded thread queue
  // and keeps it a millibottleneck long after every caller has given up.
  p.max_queue_per_replica = 16;
  p.adaptive_limit.enabled = true;
  p.adaptive_limit.min_limit = 4;
  p.adaptive_limit.max_limit = 24;
  p.adaptive_limit.rtt_tolerance = 3.0;
  p.adaptive_limit.decrease_factor = 0.7;
  p.deadline_shed.enabled = true;
  p.deadline_shed.margin = 2.0;
  p.deadline_shed.depth_weight = 0.5;
  p.endpoint_deadline = Sec(1);
  return p;
}

ScenarioSpec SocialNetworkDefendedScenario() {
  ScenarioSpec scenario = SocialNetworkScenario(DefendedDeployment());
  scenario.name = "socialnetwork_defended";
  scenario.topology.name = "socialnetwork_defended";
  scenario.description =
      "DeathStarBench SocialNetwork with the graceful-degradation layer "
      "deployed (timeouts, per-downstream bulkheads, adaptive concurrency "
      "limits, deadline-aware shedding)";
  return scenario;
}

}  // namespace grunt::scenario
