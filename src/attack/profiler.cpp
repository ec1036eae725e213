#include "attack/profiler.h"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>

namespace grunt::attack {
namespace {

// Tuning of the blackbox profiling procedure (Sec IV-C).

/// Burst rate B used by profiling bursts (requests/second).
constexpr double kBurstRate = 800.0;
/// Volume sweep, in requests per burst, low to high. The sweep for a pair
/// stops early once a burst's estimated P_MB exceeds kPmbLimitMs (stealth
/// requirement) or the pair is already classified.
constexpr std::array<std::int32_t, 4> kVolumeSweep = {12, 24, 48, 96};

/// Interference verdict: the victim probes' MEDIAN RT must exceed
/// max(factor * baseline, baseline + floor_ms). Median over several
/// probes keeps tail noise from fabricating dependencies.
constexpr double kInterferenceFactor = 3.0;
constexpr double kInterferenceFloorMs = 60.0;

/// Per-URL baseline measurement: this many probes, this far apart.
constexpr std::int32_t kBaselineProbes = 10;
constexpr SimDuration kBaselineGap = Ms(300);
/// Probes of the other path per test.
constexpr std::int32_t kVictimProbes = 5;
/// Cool-down between tests: after each test the profiler probes the
/// involved URLs every `kSettle` until their RT is back near baseline (or
/// `kSettleMaxTries` is hit), so residual queues from one test can never
/// masquerade as interference in the next.
constexpr SimDuration kSettle = Ms(500);
constexpr std::int32_t kSettleMaxTries = 16;
/// Quiet when RT <= factor * baseline + 20 ms.
constexpr double kSettleFactor = 1.8;

}  // namespace

trace::DepType ProfileResult::InferredType(std::int32_t a,
                                           std::int32_t b) const {
  for (const auto& ev : evidence) {
    if (ev.a == a && ev.b == b) return ev.inferred;
    if (ev.a == b && ev.b == a) {
      // Swap direction of sequential verdicts.
      switch (ev.inferred) {
        case trace::DepType::kSequentialAUp:
          return trace::DepType::kSequentialBUp;
        case trace::DepType::kSequentialBUp:
          return trace::DepType::kSequentialAUp;
        default:
          return ev.inferred;
      }
    }
  }
  return trace::DepType::kNone;
}

Profiler::Profiler(TargetClient& target, BotFarm& bots, ProfilerConfig)
    : target_(target), bots_(bots) {}

void Profiler::Run(std::function<void(ProfileResult)> done) {
  if (running_) throw std::logic_error("Profiler: already running");
  running_ = true;
  done_ = std::move(done);

  result_ = ProfileResult{};
  result_.urls = target_.CrawlUrls();
  std::int32_t max_id = -1;
  for (const auto& url : result_.urls) {
    max_id = std::max(max_id, url.url_id);
    if (!url.looks_static) result_.candidates.push_back(url.url_id);
  }
  result_.baseline_rt_ms.assign(static_cast<std::size_t>(max_id + 1), 0.0);

  for (std::size_t i = 0; i < result_.candidates.size(); ++i) {
    for (std::size_t j = i + 1; j < result_.candidates.size(); ++j) {
      pair_list_.emplace_back(result_.candidates[i], result_.candidates[j]);
    }
  }

  if (result_.candidates.empty()) {
    Finish();
    return;
  }
  MeasureBaseline(0);
}

void Profiler::MeasureBaseline(std::size_t candidate_idx) {
  if (candidate_idx >= result_.candidates.size()) {
    if (pair_list_.empty()) {
      Finish();
    } else {
      StartPair(0);
    }
    return;
  }
  const std::int32_t url = result_.candidates[candidate_idx];
  ProbeSender::Send(
      target_, bots_, url, kBaselineProbes, kBaselineGap,
      [this, candidate_idx, url](BurstObservation obs) {
        result_.baseline_rt_ms[static_cast<std::size_t>(url)] =
            obs.MedianRtMs();
        target_.After(kSettle,
                      [this, candidate_idx] {
                        MeasureBaseline(candidate_idx + 1);
                      });
      });
}

void Profiler::SettleQuiet(std::vector<std::int32_t> urls,
                           std::function<void()> done) {
  std::vector<double> baselines;
  baselines.reserve(urls.size());
  for (std::int32_t url : urls) {
    baselines.push_back(result_.baseline_rt_ms[static_cast<std::size_t>(url)]);
  }
  SettleUntilQuiet(target_, bots_, std::move(urls), std::move(baselines),
                   kSettle, kSettleMaxTries, kSettleFactor, std::move(done));
}

void Profiler::StartPair(std::size_t pair_idx) {
  if (pair_idx >= pair_list_.size()) {
    Finish();
    return;
  }
  PairEvidence ev;
  ev.a = pair_list_[pair_idx].first;
  ev.b = pair_list_[pair_idx].second;
  result_.evidence.push_back(std::move(ev));
  StartVolume(pair_idx, 0);
}

void Profiler::StartVolume(std::size_t pair_idx, std::size_t vol_idx) {
  PairEvidence& ev = result_.evidence.back();
  if (vol_idx >= kVolumeSweep.size() || PairDecided(ev)) {
    FinishPair(pair_idx);
    return;
  }
  const std::int32_t volume = kVolumeSweep[vol_idx];
  ev.volumes.push_back(volume);

  // Direction 1: burst `a`, probe `b`.
  const std::vector<std::int32_t> involved = {ev.a, ev.b};
  RunDirection(
      vol_idx, /*reversed=*/false,
      [this, pair_idx, vol_idx, involved](bool a_blocks_b, double pmb_a) {
        result_.evidence.back().a_blocks_b.push_back(a_blocks_b);
        SettleQuiet(involved, [this, pair_idx, vol_idx, involved, pmb_a] {
          // Direction 2: burst `b`, probe `a` (Fig 10's order swap).
          RunDirection(
              vol_idx, /*reversed=*/true,
              [this, pair_idx, vol_idx, involved, pmb_a](bool b_blocks_a,
                                                         double pmb_b) {
                result_.evidence.back().b_blocks_a.push_back(b_blocks_a);
                const bool stealth_capped =
                    pmb_a > kPmbLimitMs || pmb_b > kPmbLimitMs;
                SettleQuiet(involved,
                            [this, pair_idx, vol_idx, stealth_capped] {
                              if (stealth_capped) {
                                FinishPair(pair_idx);
                              } else {
                                StartVolume(pair_idx, vol_idx + 1);
                              }
                            });
              });
        });
      });
}

void Profiler::RunDirection(
    std::size_t vol_idx, bool reversed,
    std::function<void(bool interfered, double pmb_ms)> done) {
  RunDirectionOnce(
      vol_idx, reversed,
      [this, vol_idx, reversed, done = std::move(done)](
          bool interfered, double pmb_ms) mutable {
        if (!interfered) {
          done(interfered, pmb_ms);
          return;
        }
        // Confirmation pass: cool down, repeat, and require the
        // interference to fire again. Re-testing every positive verdict
        // squares the false-positive rate of tail noise; genuine blocking
        // effects are deterministic and re-fire.
        const PairEvidence& ev = result_.evidence.back();
        SettleQuiet({ev.a, ev.b},
                    [this, vol_idx, reversed,
                     done = std::move(done)]() mutable {
                      RunDirectionOnce(vol_idx, reversed, std::move(done));
                    });
      });
}

void Profiler::RunDirectionOnce(
    std::size_t vol_idx, bool reversed,
    std::function<void(bool interfered, double pmb_ms)> done) {
  const PairEvidence& ev = result_.evidence.back();
  const Direction dir = reversed ? Direction{ev.b, ev.a}
                                 : Direction{ev.a, ev.b};
  const std::int32_t volume = kVolumeSweep[vol_idx];
  const double length_s = static_cast<double>(volume) / kBurstRate;

  // Shared completion state: both the burst and the victim probes must
  // finish before we can render a verdict.
  struct Joint {
    bool burst_done = false;
    bool probes_done = false;
    double pmb_ms = 0;
    double victim_mean_ms = 0;
    std::function<void(bool, double)> done;
  };
  auto joint = std::make_shared<Joint>();
  joint->done = std::move(done);
  const double victim_baseline =
      result_.baseline_rt_ms[static_cast<std::size_t>(dir.victim_url)];
  auto maybe_finish = [joint, victim_baseline] {
    if (joint->burst_done && joint->probes_done) {
      joint->done(Interfered(joint->victim_mean_ms, victim_baseline),
                  joint->pmb_ms);
    }
  };

  // Profiling bursts use the heaviest legal variant of each endpoint, like
  // the attack itself will.
  BurstSender::Send(target_, bots_, dir.burst_url, /*heavy=*/true,
                    kBurstRate, volume, /*attack_traffic=*/false,
                    [joint, maybe_finish](BurstObservation obs) {
                      joint->pmb_ms = obs.EstimatePmbMs();
                      joint->burst_done = true;
                      maybe_finish();
                    });

  // Victim probes land inside the blocking window: from mid-burst to just
  // past the burst's end (the queue peaks at burst end).
  const auto first_probe = static_cast<SimDuration>(length_s * 0.5 * 1e6);
  target_.After(first_probe, [this, dir, joint, maybe_finish] {
    ProbeSender::Send(target_, bots_, dir.victim_url, kVictimProbes,
                      Ms(30), [joint, maybe_finish](BurstObservation obs) {
                        joint->victim_mean_ms = obs.MedianRtMs();
                        joint->probes_done = true;
                        maybe_finish();
                      });
  });
}

bool Profiler::Interfered(double victim_mean_ms, double baseline_ms) {
  const double threshold =
      std::max(kInterferenceFactor * baseline_ms,
               baseline_ms + kInterferenceFloorMs);
  return victim_mean_ms > threshold;
}

bool Profiler::PairDecided(const PairEvidence& ev) const {
  if (ev.a_blocks_b.empty() || ev.b_blocks_a.empty()) return false;
  // Persistent interference is judged at the lowest volume: any combination
  // involving interference there (mutual or sequential) is already decided;
  // otherwise the first interference at a higher volume proves parallel.
  if (ev.a_blocks_b.front() || ev.b_blocks_a.front()) return true;
  return ev.a_blocks_b.back() || ev.b_blocks_a.back();
}

trace::DepType Profiler::ClassifyEvidence(const PairEvidence& ev) {
  const auto any = [](const std::vector<bool>& v) {
    return std::any_of(v.begin(), v.end(), [](bool x) { return x; });
  };
  const bool any_a = any(ev.a_blocks_b);
  const bool any_b = any(ev.b_blocks_a);
  if (!any_a && !any_b) return trace::DepType::kNone;
  const bool pers_a = !ev.a_blocks_b.empty() && ev.a_blocks_b.front();
  const bool pers_b = !ev.b_blocks_a.empty() && ev.b_blocks_a.front();
  if (pers_a && pers_b) return trace::DepType::kMutual;
  if (pers_a) return trace::DepType::kSequentialAUp;
  if (pers_b) return trace::DepType::kSequentialBUp;
  // Interference exists but only above some volume: cross-tier overflow in
  // at least one direction — parallel dependency.
  return trace::DepType::kParallel;
}

void Profiler::FinishPair(std::size_t pair_idx) {
  PairEvidence& ev = result_.evidence.back();
  ev.inferred = ClassifyEvidence(ev);
  if (trace::IsDependent(ev.inferred)) {
    trace::PairwiseDep dep;
    dep.a = ev.a;
    dep.b = ev.b;
    dep.type = ev.inferred;
    result_.pairs.push_back(dep);
  }
  StartPair(pair_idx + 1);
}

void Profiler::Finish() {
  // Union dependent pairs into groups over url-id space.
  std::int32_t max_id = -1;
  for (const auto& url : result_.urls) max_id = std::max(max_id, url.url_id);
  trace::DependencyGroups groups(static_cast<std::size_t>(max_id + 1));
  for (const auto& p : result_.pairs) groups.Union(p.a, p.b);
  result_.groups.clear();
  for (const auto& group : groups.Groups()) {
    // Report only groups over profiled candidates (skip static URLs).
    std::vector<std::int32_t> members;
    for (auto id : group) {
      if (std::find(result_.candidates.begin(), result_.candidates.end(),
                    id) != result_.candidates.end()) {
        members.push_back(id);
      }
    }
    if (!members.empty()) result_.groups.push_back(std::move(members));
  }
  running_ = false;
  if (done_) done_(result_);
}

}  // namespace grunt::attack
