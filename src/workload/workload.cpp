#include "workload/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace grunt::workload {

RequestMix RequestMix::Uniform(std::vector<microsvc::RequestTypeId> types) {
  RequestMix mix;
  mix.weights.assign(types.size(), 1.0);
  mix.types = std::move(types);
  return mix;
}

void RequestMix::Validate() const {
  if (types.empty() || types.size() != weights.size()) {
    throw std::invalid_argument("RequestMix: size mismatch or empty");
  }
  double total = 0;
  for (double w : weights) total += std::max(0.0, w);
  if (total <= 0) throw std::invalid_argument("RequestMix: no positive weight");
}

microsvc::RequestTypeId RequestMix::Draw(RngStream& rng) const {
  return types[rng.NextWeighted(weights)];
}

MarkovNavigator MarkovNavigator::Uniform(
    std::vector<microsvc::RequestTypeId> types) {
  MarkovNavigator nav;
  nav.transition.assign(types.size(),
                        std::vector<double>(types.size(), 1.0));
  nav.types = std::move(types);
  return nav;
}

void MarkovNavigator::Validate() const {
  if (types.empty() || transition.size() != types.size()) {
    throw std::invalid_argument("MarkovNavigator: bad transition shape");
  }
  for (const auto& row : transition) {
    if (row.size() != types.size()) {
      throw std::invalid_argument("MarkovNavigator: ragged transition row");
    }
    double total = 0;
    for (double w : row) total += std::max(0.0, w);
    if (total <= 0) {
      throw std::invalid_argument("MarkovNavigator: absorbing zero row");
    }
  }
}

std::size_t MarkovNavigator::DrawNext(std::size_t current_index,
                                      RngStream& rng) const {
  return rng.NextWeighted(transition.at(current_index));
}

ClosedLoopWorkload::ClosedLoopWorkload(microsvc::Cluster& cluster, Config cfg,
                                       std::uint64_t seed)
    : cluster_(cluster), cfg_(std::move(cfg)),
      rng_(seed, "workload.closed." + cfg_.name) {
  cfg_.navigator.Validate();
  if (cfg_.users < 0) throw std::invalid_argument("negative user count");
  if (cfg_.think_mean <= 0) {
    throw std::invalid_argument("non-positive think_mean: " +
                                std::to_string(cfg_.think_mean) + " us");
  }
}

void ClosedLoopWorkload::Start() {
  SetUserCount(cfg_.users);
}

void ClosedLoopWorkload::SetUserCount(std::int32_t users) {
  if (users < 0) throw std::invalid_argument("negative user count");
  active_users_ = users;
  const auto want = static_cast<std::size_t>(users);
  if (users_.size() < want) users_.resize(want);
  for (std::size_t i = 0; i < want; ++i) {
    if (!users_[i].live) {
      users_[i].live = true;
      users_[i].state_index = static_cast<std::size_t>(rng_.NextInt(
          0, static_cast<std::int64_t>(cfg_.navigator.types.size()) - 1));
      UserThink(i);
    }
  }
  // Users beyond `users` park themselves at their next loop iteration.
}

void ClosedLoopWorkload::UserThink(std::size_t user_index) {
  if (user_index >= static_cast<std::size_t>(active_users_)) {
    users_[user_index].live = false;
    return;
  }
  const SimDuration think = rng_.NextExpDuration(cfg_.think_mean);
  cluster_.simulation().After(think,
                              [this, user_index] { UserIssue(user_index); });
}

void ClosedLoopWorkload::UserIssue(std::size_t user_index) {
  if (user_index >= static_cast<std::size_t>(active_users_)) {
    users_[user_index].live = false;
    return;
  }
  User& u = users_[user_index];
  u.state_index = cfg_.navigator.DrawNext(u.state_index, rng_);
  const microsvc::RequestTypeId type = cfg_.navigator.types[u.state_index];
  ++issued_;
  cluster_.Submit(type, microsvc::RequestClass::kLegit, /*heavy=*/false,
                  cfg_.client_id_base + user_index,
                  [this, user_index](const microsvc::CompletionRecord&) {
                    UserThink(user_index);
                  });
}

OpenLoopSource::OpenLoopSource(microsvc::Cluster& cluster, Config cfg,
                               std::uint64_t seed)
    : cluster_(cluster), cfg_(std::move(cfg)),
      rng_(seed, "workload.open." + cfg_.name), rate_(cfg_.rate) {
  cfg_.mix.Validate();
  if (cfg_.rate < 0) {
    char what[64];
    std::snprintf(what, sizeof what, "negative rate: %g req/s", cfg_.rate);
    throw std::invalid_argument(what);
  }
  if (cfg_.client_id_count == 0) {
    throw std::invalid_argument("client_id_count == 0");
  }
}

void OpenLoopSource::Start() {
  if (running_) return;
  running_ = true;
  Arm();
}

void OpenLoopSource::Stop() {
  running_ = false;
  ++arm_epoch_;
}

void OpenLoopSource::SetRate(double rate) {
  if (rate < 0) throw std::invalid_argument("negative rate");
  const bool was_paused = (rate_ <= 0);
  rate_ = rate;
  if (running_ && was_paused && rate_ > 0) {
    ++arm_epoch_;  // drop any stale pause-poll timer
    Arm();
  }
}

void OpenLoopSource::Arm() {
  const std::uint64_t epoch = arm_epoch_;
  if (rate_ <= 0) return;  // paused; SetRate() re-arms
  const SimDuration gap = std::max<SimDuration>(
      1, rng_.NextExpDuration(static_cast<SimDuration>(
             1e6 / rate_)));
  cluster_.simulation().After(gap, [this, epoch] {
    if (!running_ || epoch != arm_epoch_ || rate_ <= 0) return;
    const microsvc::RequestTypeId type = cfg_.mix.Draw(rng_);
    const std::uint64_t client =
        cfg_.client_id_base +
        static_cast<std::uint64_t>(rng_.NextInt(
            0, static_cast<std::int64_t>(cfg_.client_id_count) - 1));
    ++issued_;
    cluster_.Submit(type, microsvc::RequestClass::kLegit, /*heavy=*/false,
                    client);
    Arm();
  });
}

void RateTrace::Apply(sim::Simulation& sim, OpenLoopSource& source) const {
  for (const Point& p : points) {
    // Phase changes sit minutes out; the wheel keeps them off the heap
    // until their level expires.
    sim.At(p.at, [&source, rate = p.rate] { source.SetRate(rate); });
  }
}

double RateTrace::RateAt(SimTime t) const {
  double rate = 0;
  for (const Point& p : points) {
    if (p.at > t) break;
    rate = p.rate;
  }
  return rate;
}

double RateTrace::MaxRate() const {
  double m = 0;
  for (const Point& p : points) m = std::max(m, p.rate);
  return m;
}

double RateTrace::MinRate() const {
  if (points.empty()) return 0;
  double m = points.front().rate;
  for (const Point& p : points) m = std::min(m, p.rate);
  return m;
}

RateTrace MakeLargeVariationTrace(SimTime start, SimDuration duration,
                                  SimDuration step, double min_rate,
                                  double max_rate, std::uint64_t seed) {
  if (step <= 0 || duration <= 0 || max_rate < min_rate) {
    throw std::invalid_argument("MakeLargeVariationTrace: bad parameters");
  }
  RngStream rng(seed, "workload.large_variation");
  RateTrace trace;
  const double mid = (min_rate + max_rate) / 2.0;
  const double amp = (max_rate - min_rate) / 2.0;
  const double period_s = ToSeconds(duration) / 2.5;  // ~2.5 swings
  for (SimTime t = start; t < start + duration; t += step) {
    const double phase =
        2.0 * 3.14159265358979323846 * ToSeconds(t - start) / period_s;
    double rate = mid + amp * std::sin(phase);
    // Per-step jitter (+-15%) and occasional upward spikes (8% of steps).
    rate *= 1.0 + 0.15 * (2.0 * rng.NextDouble() - 1.0);
    if (rng.NextBool(0.08)) rate *= 1.3;
    trace.points.push_back({t, std::clamp(rate, min_rate, max_rate)});
  }
  return trace;
}

}  // namespace grunt::workload
