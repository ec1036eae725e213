#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "microsvc/cluster.h"
#include "util/rng.h"

namespace grunt::workload {

/// A probability mix over request types. Weights need not be normalized.
struct RequestMix {
  std::vector<microsvc::RequestTypeId> types;
  std::vector<double> weights;

  /// Uniform mix over the given types.
  static RequestMix Uniform(std::vector<microsvc::RequestTypeId> types);
  microsvc::RequestTypeId Draw(RngStream& rng) const;
  void Validate() const;  ///< throws on size mismatch / no positive weight
};

/// Optional Markov page-navigation model: row t = transition distribution
/// from type t to the next type. The paper's legitimate users "progress
/// through a Markov chain to navigate web pages" (Sec V-B).
struct MarkovNavigator {
  std::vector<microsvc::RequestTypeId> types;
  /// transition[i][j]: weight of moving from types[i] to types[j].
  std::vector<std::vector<double>> transition;

  /// Uniform-transition chain over the given types.
  static MarkovNavigator Uniform(std::vector<microsvc::RequestTypeId> types);
  std::size_t DrawNext(std::size_t current_index, RngStream& rng) const;
  void Validate() const;
};

/// Closed-loop user population: each user thinks (exponential, mean
/// `think_mean`), issues the next request of its Markov chain, waits for the
/// response, and thinks again. Population size is adjustable at runtime.
class ClosedLoopWorkload {
 public:
  struct Config {
    std::int32_t users = 100;
    SimDuration think_mean = Sec(7);  ///< paper: average 7 s thinking time
    MarkovNavigator navigator;
    std::uint64_t client_id_base = 1'000'000;
    std::string name = "closed";
  };

  /// Throws std::invalid_argument on a negative user count or a think_mean
  /// of 0 or less.
  ClosedLoopWorkload(microsvc::Cluster& cluster, Config cfg,
                     std::uint64_t seed);

  /// Begins the user loops (each user starts with one think time so arrivals
  /// are de-synchronized).
  void Start();

  /// Grows or shrinks the active population. Shrinking parks users after
  /// their in-flight request completes.
  void SetUserCount(std::int32_t users);
  std::int32_t user_count() const { return active_users_; }

  std::uint64_t requests_issued() const { return issued_; }

 private:
  struct User {
    std::size_t state_index = 0;
    bool live = false;
  };

  void UserThink(std::size_t user_index);
  void UserIssue(std::size_t user_index);

  microsvc::Cluster& cluster_;
  Config cfg_;
  RngStream rng_;
  std::vector<User> users_;
  std::int32_t active_users_ = 0;
  std::uint64_t issued_ = 0;
};

/// Open-loop Poisson source with a runtime-adjustable rate; used for
/// trace-driven workloads (Fig 15's "Large Variation" trace).
class OpenLoopSource {
 public:
  struct Config {
    double rate = 100.0;  ///< requests/second
    RequestMix mix;
    std::uint64_t client_id_base = 2'000'000;
    /// Number of distinct client ids to rotate through (sessions).
    std::uint64_t client_id_count = 10'000;
    std::string name = "open";
  };

  /// Throws std::invalid_argument on a negative rate; rate 0 starts paused.
  OpenLoopSource(microsvc::Cluster& cluster, Config cfg, std::uint64_t seed);

  void Start();
  void Stop();
  void SetRate(double rate);  ///< 0 pauses the source
  double rate() const { return rate_; }
  std::uint64_t requests_issued() const { return issued_; }

 private:
  void Arm();

  microsvc::Cluster& cluster_;
  Config cfg_;
  RngStream rng_;
  double rate_;
  bool running_ = false;
  std::uint64_t issued_ = 0;
  std::uint64_t arm_epoch_ = 0;  ///< invalidates stale timer closures
};

/// Piecewise-constant rate trace: breakpoints applied in time order.
struct RateTrace {
  struct Point {
    SimTime at;
    double rate;
  };
  std::vector<Point> points;

  /// Schedules SetRate calls on `source` for every breakpoint.
  void Apply(sim::Simulation& sim, OpenLoopSource& source) const;

  double RateAt(SimTime t) const;  ///< rate in effect at time t (0 before first)
  double MaxRate() const;
  double MinRate() const;
};

/// Generates a bursty trace in the spirit of the "Large Variation" trace of
/// Gandhi et al. [24] used in Fig 15: a slow sinusoidal swing between
/// min_rate and max_rate plus random per-step jitter and occasional spikes.
RateTrace MakeLargeVariationTrace(SimTime start, SimDuration duration,
                                  SimDuration step, double min_rate,
                                  double max_rate, std::uint64_t seed);

}  // namespace grunt::workload
