#include "attack/grunt_attack.h"

#include <algorithm>

namespace grunt::attack {

double GruntReport::MeanPmbMs() const {
  double total = 0;
  std::size_t n = 0;
  for (const auto& g : groups) {
    if (g.MeanPmbMs() > 0) {
      total += g.MeanPmbMs();
      ++n;
    }
  }
  return n == 0 ? 0 : total / static_cast<double>(n);
}

double GruntReport::MeanTminMs() const {
  double total = 0;
  std::size_t n = 0;
  for (const auto& g : groups) {
    if (!g.bursts.empty()) {
      total += g.MeanTminMs();
      ++n;
    }
  }
  return n == 0 ? 0 : total / static_cast<double>(n);
}

GruntAttack::GruntAttack(TargetClient& target, GruntConfig cfg)
    : target_(target), cfg_(std::move(cfg)), bots_(cfg_.botfarm) {}

void GruntAttack::Run(SimDuration attack_duration,
                      std::function<void(const GruntReport&)> done) {
  profiler_ = std::make_unique<Profiler>(target_, bots_);
  profiler_->Run([this, attack_duration, done = std::move(done)](
                     ProfileResult profile) mutable {
    RunWithProfile(std::move(profile), attack_duration, std::move(done));
  });
}

void GruntAttack::RunWithProfile(
    ProfileResult profile, SimDuration attack_duration,
    std::function<void(const GruntReport&)> done) {
  report_ = GruntReport{};
  report_.profile = std::move(profile);

  // Target the largest groups first (they cover the most traffic).
  std::vector<std::vector<std::int32_t>> targets = report_.profile.groups;
  std::stable_sort(targets.begin(), targets.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() > b.size();
                   });
  commanders_.clear();
  for (const auto& group : targets) {
    if (cfg_.max_groups > 0 && commanders_.size() >= cfg_.max_groups) break;
    commanders_.push_back(std::make_unique<GroupCommander>(
        target_, bots_, cfg_.commander, group, report_.profile));
  }
  if (commanders_.empty()) {
    report_.bots_used = bots_.bot_count();
    done(report_);
    return;
  }
  if (!cfg_.replay.empty()) {
    if (cfg_.replay.size() != commanders_.size()) {
      throw std::invalid_argument(
          "GruntConfig::replay: entry count does not match the attacked "
          "group count");
    }
    for (std::size_t i = 0; i < commanders_.size(); ++i) {
      commanders_[i]->SetReplay(cfg_.replay[i]);
    }
  }
  InitializeGroups(0, attack_duration, std::move(done));
}

void GruntAttack::InitializeGroups(
    std::size_t idx, SimDuration attack_duration,
    std::function<void(const GruntReport&)> done) {
  if (idx >= commanders_.size()) {
    LaunchAttacks(attack_duration, std::move(done));
    return;
  }
  commanders_[idx]->Initialize(
      [this, idx, attack_duration, done = std::move(done)]() mutable {
        InitializeGroups(idx + 1, attack_duration, std::move(done));
      });
}

void GruntAttack::LaunchAttacks(
    SimDuration attack_duration,
    std::function<void(const GruntReport&)> done) {
  const SimTime attack_until = target_.Now() + attack_duration;
  if (attack_start_cb_) attack_start_cb_(target_.Now());
  auto remaining = std::make_shared<std::size_t>(commanders_.size());
  auto done_shared =
      std::make_shared<std::function<void(const GruntReport&)>>(
          std::move(done));
  for (auto& commander : commanders_) {
    commander->Attack(attack_until, [this, remaining, done_shared] {
      if (--*remaining == 0) {
        for (const auto& c : commanders_) {
          report_.groups.push_back(c->stats());
          report_.attack_requests += c->stats().attack_requests;
        }
        report_.bots_used = bots_.bot_count();
        (*done_shared)(report_);
      }
    });
  }
}

}  // namespace grunt::attack
