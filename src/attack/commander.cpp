#include "attack/commander.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "util/logging.h"

namespace grunt::attack {

double GroupStats::MeanPmbMs() const {
  if (bursts.empty()) return 0;
  double total = 0;
  std::size_t n = 0;
  for (const auto& b : bursts) {
    if (b.pmb_ms > 0) {
      total += b.pmb_ms;
      ++n;
    }
  }
  return n == 0 ? 0 : total / static_cast<double>(n);
}

double GroupStats::MeanTminMs() const {
  if (bursts.empty()) return 0;
  double total = 0;
  for (const auto& b : bursts) total += b.mean_rt_ms;
  return total / static_cast<double>(bursts.size());
}

GroupCommander::GroupCommander(TargetClient& target, BotFarm& bots,
                               CommanderConfig cfg,
                               std::vector<std::int32_t> group,
                               const ProfileResult& profile)
    : target_(target), bots_(bots), cfg_(cfg), group_(std::move(group)),
      profile_(profile) {
  if (group_.empty()) {
    throw std::invalid_argument("GroupCommander: empty group");
  }
}

double GroupCommander::BaselineOf(std::int32_t url) const {
  const auto idx = static_cast<std::size_t>(url);
  if (idx < profile_.baseline_rt_ms.size() &&
      profile_.baseline_rt_ms[idx] > 0) {
    return profile_.baseline_rt_ms[idx];
  }
  if (!warned_fallback_baseline_) {
    warned_fallback_baseline_ = true;
    LogWarn() << "commander: no measured baseline for url " << url
              << "; assuming " << cfg_.fallback_baseline_ms
              << " ms (cfg.fallback_baseline_ms) — settle/trigger "
              << "thresholds will be off if the real baseline differs";
  }
  return cfg_.fallback_baseline_ms;
}

void GroupCommander::SettleQuiet(std::int32_t url,
                                 std::function<void()> done) {
  SettleUntilQuiet(target_, bots_, {url}, {BaselineOf(url)}, cfg_.settle,
                   cfg_.settle_max_tries, cfg_.settle_factor, std::move(done));
}

void GroupCommander::Initialize(std::function<void()> done) {
  if (replay_) {
    // Open-loop replay: install the reference campaign's plans verbatim —
    // no calibration traffic, no m search.
    paths_.clear();
    const GroupReplay& r = *replay_;
    for (std::size_t i = 0; i < r.plans.size(); ++i) {
      const SimDuration interval =
          i < r.intervals.size() && r.intervals[i] > 0 ? r.intervals[i]
                                                       : Ms(450);
      PathRuntime rt{
          r.plans[i],
          ScalarKalman(cfg_.kf_process_var, cfg_.kf_measurement_var,
                       cfg_.pmb_limit_ms * cfg_.pmb_target_fraction, 1e4),
          ScalarKalman(cfg_.kf_process_var, cfg_.kf_measurement_var,
                       cfg_.target_tmin_ms, 1e5),
          interval};
      paths_.push_back(std::move(rt));
    }
    if (paths_.empty()) {
      throw std::invalid_argument("GroupCommander: empty replay");
    }
    stats_.paths_used =
        r.paths_used > 0
            ? std::min<std::int32_t>(
                  r.paths_used, static_cast<std::int32_t>(paths_.size()))
            : static_cast<std::int32_t>(paths_.size());
    for (const auto& p : paths_) stats_.plans.push_back(p.plan);
    initialized_ = true;
    done();
    return;
  }
  paths_.clear();
  for (std::int32_t url : group_) {
    PathRuntime rt{
        PathPlan{url, BaselineOf(url), 0, 0, 0,
                 model::KindFromDependencies(url, profile_.pairs)},
        ScalarKalman(cfg_.kf_process_var, cfg_.kf_measurement_var,
                     cfg_.pmb_limit_ms * cfg_.pmb_target_fraction, 1e4),
        ScalarKalman(cfg_.kf_process_var, cfg_.kf_measurement_var,
                     cfg_.target_tmin_ms, 1e5),
        Ms(450)};
    paths_.push_back(std::move(rt));
  }
  CalibratePath(0, [this, done = std::move(done)]() mutable {
    RankAndTrim();
    TrialRun(1, [this, done = std::move(done)] {
      initialized_ = true;
      for (const auto& p : paths_) stats_.plans.push_back(p.plan);
      done();
    });
  });
}

void GroupCommander::CalibratePath(std::size_t idx,
                                   std::function<void()> done) {
  if (idx >= paths_.size()) {
    done();
    return;
  }
  FindMinRate(idx, cfg_.rate_sweep_lo,
              [this, idx, done = std::move(done)]() mutable {
                FindMaxCount(idx, cfg_.rate_probe_count, /*last_good=*/0,
                             /*last_good_pmb=*/0,
                             [this, idx, done = std::move(done)]() mutable {
                               SettleQuiet(paths_[idx].plan.url,
                                           [this, idx,
                                            done = std::move(done)] {
                                             CalibratePath(idx + 1, done);
                                           });
                             });
              });
}

void GroupCommander::FindMinRate(std::size_t idx, double rate,
                                 std::function<void()> done) {
  PathRuntime& p = paths_[idx];
  if (rate > cfg_.rate_sweep_hi) {
    // Never saturated within the sweep: use the top rate; the path will
    // contribute little and ranking will push it last.
    p.plan.rate = cfg_.rate_sweep_hi;
    done();
    return;
  }
  BurstSender::Send(
      target_, bots_, p.plan.url, /*heavy=*/true, rate, cfg_.rate_probe_count,
      /*attack_traffic=*/false,
      [this, idx, rate, done = std::move(done)](BurstObservation obs) mutable {
        PathRuntime& path = paths_[idx];
        const double threshold =
            std::max(cfg_.trigger_factor * path.plan.baseline_ms,
                     path.plan.baseline_ms + cfg_.trigger_floor_ms);
        // Saturation shows either as inflated RT or, against a target with
        // timeouts/shedding deployed, as an error spike at bounded RT.
        const bool triggered =
            obs.MeanRtMs() > threshold ||
            1.0 - obs.OkFraction() > cfg_.trigger_error_fraction;
        SettleQuiet(path.plan.url,
                    [this, idx, rate, triggered,
                     done = std::move(done)]() mutable {
          if (triggered) {
            paths_[idx].plan.rate = rate;
            done();
          } else {
            FindMinRate(idx, rate * 2.0, std::move(done));
          }
        });
      });
}

void GroupCommander::FindMaxCount(std::size_t idx, std::int32_t count,
                                  std::int32_t last_good,
                                  double last_good_pmb,
                                  std::function<void()> done) {
  PathRuntime& p = paths_[idx];
  if (count > cfg_.max_count) {
    p.plan.count = std::max(cfg_.min_count, last_good);
    p.plan.measured_pmb_ms = last_good_pmb;
    done();
    return;
  }
  BurstSender::Send(
      target_, bots_, p.plan.url, /*heavy=*/true, p.plan.rate, count,
      /*attack_traffic=*/false,
      [this, idx, count, last_good, last_good_pmb,
       done = std::move(done)](BurstObservation obs) mutable {
        const double pmb = obs.EstimatePmbMs();
        const double cap = cfg_.pmb_limit_ms * cfg_.pmb_target_fraction;
        SettleQuiet(paths_[idx].plan.url,
                    [this, idx, count, last_good, last_good_pmb, pmb, cap,
                     done = std::move(done)]() mutable {
          PathRuntime& path = paths_[idx];
          if (pmb > cap) {
            // Overshot the stealth cap: keep the previous volume.
            path.plan.count = std::max(cfg_.min_count,
                                       last_good > 0 ? last_good : count / 2);
            path.plan.measured_pmb_ms =
                last_good_pmb > 0 ? last_good_pmb : pmb;
            done();
          } else {
            FindMaxCount(idx, count * 2, count, pmb, std::move(done));
          }
        });
      });
}

void GroupCommander::RankAndTrim() {
  std::vector<model::Candidate> cands;
  for (const auto& p : paths_) {
    model::Candidate c;
    c.type = p.plan.url;
    c.kind = p.plan.kind;
    // Volume that produced (close to) the reference millibottleneck; paths
    // that never reached it sort naturally to the back via huge volume.
    c.volume_for_pmb = p.plan.measured_pmb_ms > 0
                           ? p.plan.volume() * cfg_.pmb_limit_ms /
                                 p.plan.measured_pmb_ms
                           : 1e18;
    cands.push_back(c);
  }
  cands = model::RankCandidates(std::move(cands));
  std::vector<PathRuntime> ranked;
  ranked.reserve(paths_.size());
  for (const auto& c : cands) {
    auto it = std::find_if(paths_.begin(), paths_.end(),
                           [&c](const PathRuntime& p) {
                             return p.plan.url == c.type;
                           });
    ranked.push_back(std::move(*it));
    paths_.erase(it);
  }
  paths_ = std::move(ranked);
  if (static_cast<std::int32_t>(paths_.size()) > cfg_.max_paths) {
    paths_.erase(paths_.begin() + cfg_.max_paths, paths_.end());
  }
}

void GroupCommander::TrialRun(std::int32_t m, std::function<void()> done) {
  m = std::min<std::int32_t>(m, static_cast<std::int32_t>(paths_.size()));
  stats_.paths_used = m;
  trial_rts_.clear();
  // Run the periodic engine for a couple of full rotations and judge the
  // sustained damage (Sec IV-D step 3: grow m until the goal is met).
  auto ctx = std::make_shared<LoopCtx>();
  ctx->m = m;
  ctx->until = target_.Now() + Ms(1500) + Ms(900) * m;
  ctx->trial = true;
  ctx->done = [this, m, done = std::move(done)]() mutable {
    // Skip the ramp-up third of the probe samples when judging.
    double mean = 0;
    std::size_t counted = 0;
    for (std::size_t i = trial_rts_.size() / 3; i < trial_rts_.size(); ++i) {
      mean += trial_rts_[i];
      ++counted;
    }
    if (counted > 0) mean /= static_cast<double>(counted);
    trial_tmin_ms_ = mean;
    const bool enough = mean >= cfg_.target_tmin_ms;
    const bool exhausted = m >= static_cast<std::int32_t>(paths_.size()) ||
                           m >= cfg_.max_paths;
    if (enough || exhausted) {
      stats_.paths_used = m;
      SettleQuiet(paths_.front().plan.url, std::move(done));
    } else {
      SettleQuiet(paths_.front().plan.url,
                  [this, m, done = std::move(done)] {
                    TrialRun(m + 1, std::move(done));
                  });
    }
  };
  FireLoop(ctx);
  ProbeLoop(ctx, 0);
}

void GroupCommander::Attack(SimTime until, std::function<void()> done) {
  if (!initialized_) throw std::logic_error("GroupCommander: not initialized");
  if (attacking_) throw std::logic_error("GroupCommander: already attacking");
  attacking_ = true;
  attack_until_ = until;
  attack_done_ = std::move(done);
  FireInitialMixedBurst();
}

void GroupCommander::FireInitialMixedBurst() {
  // Sec III-B: "We first use a mixed burst targeting all m critical paths to
  // create multiple blocking effects and quickly build up queues."
  const auto m = static_cast<std::size_t>(std::max(1, stats_.paths_used));
  for (std::size_t i = 0; i < m && i < paths_.size(); ++i) {
    PathRuntime& p = paths_[i];
    stats_.attack_requests += static_cast<std::uint64_t>(p.plan.count);
    BurstSender::Send(target_, bots_, p.plan.url, /*heavy=*/true, p.plan.rate,
                      p.plan.count, /*attack_traffic=*/true,
                      [this, i](BurstObservation obs) {
                        OnBurstDone(i, obs, /*trial=*/false);
                      });
  }
  auto ctx = std::make_shared<LoopCtx>();
  ctx->m = stats_.paths_used;
  ctx->until = attack_until_;
  ctx->trial = false;
  ctx->done = [this] {
    attacking_ = false;
    if (attack_done_) attack_done_();
  };
  // Begin the rotation one interval after the mixed volley.
  target_.After(paths_.front().interval, [this, ctx] { FireLoop(ctx); });
  ProbeLoop(ctx, 0);
}

void GroupCommander::ProbeLoop(std::shared_ptr<LoopCtx> ctx,
                               std::size_t probe_idx) {
  if (target_.Now() >= ctx->until) return;
  const std::size_t m = std::max<std::size_t>(
      1, std::min(paths_.size(), static_cast<std::size_t>(ctx->m)));
  const std::int32_t url = paths_[probe_idx % m].plan.url;
  const bool trial = ctx->trial;
  ProbeSender::Send(target_, bots_, url, /*count=*/1, Ms(10),
                    [this, trial](BurstObservation obs) {
                      const double rt = obs.MedianRtMs();
                      const double est = cfg_.use_kalman
                                             ? group_tmin_kf_.Update(rt)
                                             : rt;
                      last_tmin_est_ms_ = est;
                      if (trial) {
                        trial_rts_.push_back(rt);
                      } else {
                        stats_.tmin_est_ms.Add(target_.Now(), est);
                      }
                    });
  target_.After(cfg_.probe_period,
                [this, ctx, probe_idx] { ProbeLoop(ctx, probe_idx + 1); });
}

void GroupCommander::FireLoop(std::shared_ptr<LoopCtx> ctx) {
  if (target_.Now() >= ctx->until) {
    if (ctx->done) ctx->done();
    return;
  }
  // Stability guards: bounded in-flight feedback, back off on overshoot
  // (the feedback is delayed by the very damage it reports; unbounded
  // firing would run away).
  if (outstanding_bursts_ >= cfg_.max_inflight_bursts ||
      last_tmin_est_ms_ > cfg_.overshoot_factor * cfg_.target_tmin_ms) {
    target_.After(Ms(150), [this, ctx] { FireLoop(ctx); });
    return;
  }
  const auto m = static_cast<std::size_t>(std::max(1, ctx->m));
  // Pick the next path in rotation whose previous burst has drained (a
  // fresh burst on a still-bottlenecked service would stretch P_MB past the
  // stealth cap instead of adding damage).
  std::size_t path_idx = m;  // invalid
  for (std::size_t probe = 0; probe < m; ++probe) {
    const std::size_t cand =
        cfg_.alternate_paths ? (ctx->idx + probe) % m : 0;
    if (!paths_[cand].inflight) {
      path_idx = cand;
      ctx->idx = cfg_.alternate_paths ? cand + 1 : 0;
      break;
    }
    if (!cfg_.alternate_paths) break;
  }
  if (path_idx >= m) {
    target_.After(Ms(150), [this, ctx] { FireLoop(ctx); });
    return;
  }
  PathRuntime& p = paths_[path_idx];
  if (!ctx->trial) {
    stats_.attack_requests += static_cast<std::uint64_t>(p.plan.count);
  }
  const bool trial = ctx->trial;
  ++outstanding_bursts_;
  p.inflight = true;
  BurstSender::Send(target_, bots_, p.plan.url, /*heavy=*/true, p.plan.rate,
                    p.plan.count, /*attack_traffic=*/!trial,
                    [this, path_idx, trial](BurstObservation obs) {
                      --outstanding_bursts_;
                      paths_[path_idx].inflight = false;
                      OnBurstDone(path_idx, obs, trial);
                    });
  // Eq (9): the next burst fires one (feedback-adapted) damage interval
  // after this one STARTS, so blocking effects overlap and accumulate.
  target_.After(p.interval, [this, ctx] { FireLoop(ctx); });
}

void GroupCommander::OnBurstDone(std::size_t path_idx,
                                 const BurstObservation& obs, bool trial) {
  PathRuntime& p = paths_[path_idx];
  const double pmb_raw = obs.EstimatePmbMs();
  const double tmin_raw = obs.MeanRtMs();
  const double pmb_est = cfg_.use_kalman ? p.pmb_kf.Update(pmb_raw) : pmb_raw;
  p.tmin_kf.Update(tmin_raw);

  if (!trial) {
    stats_.bursts.push_back({obs.burst_start, p.plan.url, p.plan.rate,
                             p.plan.count, pmb_raw, tmin_raw,
                             obs.OkFraction()});
    stats_.burst_volume.Add(target_.Now(),
                            static_cast<double>(p.plan.count));
  }

  // Open-loop replay: the schedule is frozen — keep the telemetry above but
  // never touch volume or cadence.
  if (replay_) return;

  // Adapt L (via count) so the created millibottleneck tracks the stealth
  // cap: linear P_MB-vs-L relation (Sec III summary).
  if (pmb_est > 1.0) {
    const double scale = std::clamp(
        cfg_.pmb_limit_ms * cfg_.pmb_target_fraction / pmb_est, 0.6, 1.6);
    p.plan.count = std::clamp<std::int32_t>(
        static_cast<std::int32_t>(std::lround(p.plan.count * scale)),
        cfg_.min_count, cfg_.max_count);
  }
  // Adapt the interval so the maintained damage tracks the goal: too much
  // damage -> widen (stealthier), too little -> tighten (Eq 8/9 feedback).
  // The damage signal is the probe-based estimate (legit-user view).
  const double ratio = last_tmin_est_ms_ / cfg_.target_tmin_ms;
  const double adj = std::clamp(ratio, 0.7, 1.4);
  // Per-service duty-cycle floor: this path's bottleneck gets hit once per
  // m rotation steps, so its busy fraction is pmb / (m * interval).
  const double m = static_cast<double>(std::max(1, stats_.paths_used));
  const auto duty_floor = static_cast<SimDuration>(
      pmb_est * 1000.0 / (cfg_.max_duty_cycle * m));
  const SimDuration lo = std::min(
      std::max(cfg_.min_interval, duty_floor), cfg_.max_interval);
  p.interval = std::clamp<SimDuration>(
      static_cast<SimDuration>(static_cast<double>(p.interval) * adj), lo,
      cfg_.max_interval);
}

}  // namespace grunt::attack
