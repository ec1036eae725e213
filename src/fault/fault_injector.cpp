#include "fault/fault_injector.h"

#include <algorithm>

#include "util/logging.h"

namespace grunt::fault {

const char* ToString(FaultKind k) {
  switch (k) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRestart: return "restart";
    case FaultKind::kSlowStart: return "slow-start";
    case FaultKind::kSlowEnd: return "slow-end";
    case FaultKind::kNetSpikeStart: return "net-spike-start";
    case FaultKind::kNetSpikeEnd: return "net-spike-end";
  }
  return "?";
}

FaultInjector::FaultInjector(sim::Simulation& sim, microsvc::Cluster& cluster,
                             std::uint64_t seed)
    : sim_(sim), cluster_(cluster), rng_(seed, "fault.injector") {}

void FaultInjector::FireCrash(microsvc::ServiceId svc, SimDuration downtime) {
  const bool applied = cluster_.service(svc).Crash();
  log_.push_back({sim_.Now(), FaultKind::kCrash, svc,
                  static_cast<double>(cluster_.service(svc).replicas()),
                  applied});
  if (!applied) {
    LogWarn() << "fault: crash of service " << svc
              << " skipped (0 replicas left)";
    return;
  }
  if (downtime > 0) {
    sim_.After(downtime, [this, svc] {
      cluster_.service(svc).Restart();
      log_.push_back({sim_.Now(), FaultKind::kRestart, svc,
                      static_cast<double>(cluster_.service(svc).replicas()),
                      true});
    });
  }
}

void FaultInjector::ScheduleCrash(microsvc::ServiceId svc, SimTime at,
                                  SimDuration downtime) {
  sim_.At(at, [this, svc, downtime] { FireCrash(svc, downtime); });
}

void FaultInjector::ScheduleSlow(microsvc::ServiceId svc, SimTime at,
                                 double factor, SimDuration duration) {
  sim_.At(at, [this, svc, factor, duration] {
    cluster_.service(svc).MultiplyDemandFactor(factor);
    log_.push_back({sim_.Now(), FaultKind::kSlowStart, svc, factor, true});
    if (duration > 0) {
      sim_.After(duration, [this, svc, factor] {
        cluster_.service(svc).MultiplyDemandFactor(1.0 / factor);
        log_.push_back({sim_.Now(), FaultKind::kSlowEnd, svc,
                        cluster_.service(svc).demand_factor(), true});
      });
    }
  });
}

void FaultInjector::ScheduleNetSpike(SimTime at, SimDuration extra,
                                     SimDuration duration) {
  sim_.At(at, [this, extra, duration] {
    cluster_.AddExtraNetLatency(extra);
    log_.push_back({sim_.Now(), FaultKind::kNetSpikeStart,
                    microsvc::kInvalidService, static_cast<double>(extra),
                    true});
    if (duration > 0) {
      sim_.After(duration, [this, extra] {
        cluster_.AddExtraNetLatency(-extra);
        log_.push_back({sim_.Now(), FaultKind::kNetSpikeEnd,
                        microsvc::kInvalidService,
                        static_cast<double>(cluster_.extra_net_latency()),
                        true});
      });
    }
  });
}

void FaultInjector::ScheduleRandomCrashes(SimTime start, SimTime end,
                                          SimDuration mean_interval,
                                          SimDuration downtime) {
  // Draw the whole sequence up front so the stream's consumption does not
  // depend on simulation state at fire time.
  SimTime t = start;
  while (true) {
    t += std::max<SimDuration>(1, rng_.NextExpDuration(mean_interval));
    if (t >= end) break;
    const auto svc = static_cast<microsvc::ServiceId>(rng_.NextInt(
        0, static_cast<std::int64_t>(cluster_.service_count()) - 1));
    sim_.At(t, [this, svc, downtime] { FireCrash(svc, downtime); });
  }
}

}  // namespace grunt::fault
