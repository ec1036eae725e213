#include "sim/timer_wheel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <sstream>
#include <string>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "util/time_types.h"

namespace grunt::sim {
namespace {

// ---------------------------------------------------------------------------
// Differential ordering harness: one randomized schedule script, executed
// three ways — wheel-enabled Simulation, wheel-disabled Simulation, and a
// naive std::priority_queue reference — must produce byte-identical firing
// sequences. The script mixes At/After/Every, in-callback scheduling and
// cancellation, and same-time ties. Two delay generators drive it: one
// stresses the wheel's bucket math (cascade-boundary times, beyond-horizon
// delays), the other is biased hard toward zero, so zero-delay chains,
// same-timestamp cancels and heap/wheel ties at one timestamp dominate.
// ---------------------------------------------------------------------------

struct ChildOp {
  SimDuration delay;
  int action;
};

struct Action {
  SimDuration period = 0;  ///< > 0: scheduled via Every
  int max_fires = 1;       ///< periodic actions self-cancel after this many
  std::vector<ChildOp> children;
  std::vector<int> cancels;  ///< cancelled when this action fires
};

struct Root {
  SimTime at;
  int action;
};

struct Script {
  std::vector<Action> actions;
  std::vector<Root> roots;
};

using FireLog = std::vector<std::pair<SimTime, int>>;

/// Runs the script on the real engine. `use_wheel` toggles the timing
/// wheel; both settings must observe identical behavior.
FireLog RunOnSimulation(const Script& script, bool use_wheel) {
  Simulation sim;
  sim.SetTimerWheelEnabled(use_wheel);
  std::vector<EventHandle> handles(script.actions.size());
  std::vector<int> fires(script.actions.size(), 0);
  FireLog log;

  std::function<void(int)> fire = [&](int a) {
    log.emplace_back(sim.Now(), a);
    const Action& act = script.actions[static_cast<std::size_t>(a)];
    const int n = ++fires[static_cast<std::size_t>(a)];
    for (int c : act.cancels) handles[static_cast<std::size_t>(c)].Cancel();
    if (n == 1) {  // children are single-schedule; only the first tick spawns
      for (const ChildOp& ch : act.children) {
        const Action& child =
            script.actions[static_cast<std::size_t>(ch.action)];
        handles[static_cast<std::size_t>(ch.action)] =
            child.period > 0
                ? sim.Every(child.period, [&fire, a = ch.action] { fire(a); })
                : sim.After(ch.delay, [&fire, a = ch.action] { fire(a); });
      }
    }
    if (act.period > 0 && n >= act.max_fires) {
      handles[static_cast<std::size_t>(a)].Cancel();
    }
  };

  for (const Root& r : script.roots) {
    const Action& act = script.actions[static_cast<std::size_t>(r.action)];
    handles[static_cast<std::size_t>(r.action)] =
        act.period > 0
            ? sim.Every(act.period, [&fire, a = r.action] { fire(a); })
            : sim.At(r.at, [&fire, a = r.action] { fire(a); });
  }
  sim.RunAll();
  return log;
}

/// The reference: a plain (time, seq) priority queue with the same observable
/// semantics — ties fire in scheduling order (zero-delay events included),
/// Every re-arms after its callback (so in-callback children get earlier
/// sequence numbers), one-shot handles go stale before their callback runs,
/// cancels are idempotent.
FireLog RunOnReference(const Script& script) {
  struct Ev {
    SimTime time;
    std::uint64_t seq;
    int action;
  };
  auto later = [](const Ev& a, const Ev& b) {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  };
  std::priority_queue<Ev, std::vector<Ev>, decltype(later)> queue(later);

  enum class State { kIdle, kPending, kDone };
  std::vector<State> state(script.actions.size(), State::kIdle);
  std::vector<int> fires(script.actions.size(), 0);
  SimTime now = 0;
  std::uint64_t next_seq = 0;
  FireLog log;

  auto schedule = [&](SimTime t, int a) {
    queue.push(Ev{t, next_seq++, a});
    state[static_cast<std::size_t>(a)] = State::kPending;
  };
  auto cancel = [&](int a) {
    if (state[static_cast<std::size_t>(a)] == State::kPending) {
      state[static_cast<std::size_t>(a)] = State::kDone;
    }
  };

  for (const Root& r : script.roots) {
    const Action& act = script.actions[static_cast<std::size_t>(r.action)];
    schedule(act.period > 0 ? act.period : r.at, r.action);
  }
  while (!queue.empty()) {
    const Ev e = queue.top();
    queue.pop();
    const auto a = static_cast<std::size_t>(e.action);
    if (state[a] != State::kPending) continue;
    now = e.time;
    const Action& act = script.actions[a];
    if (act.period == 0) state[a] = State::kDone;  // handle stale pre-callback
    log.emplace_back(now, e.action);
    const int n = ++fires[a];
    for (int c : act.cancels) cancel(c);
    if (n == 1) {
      for (const ChildOp& ch : act.children) {
        const Action& child =
            script.actions[static_cast<std::size_t>(ch.action)];
        schedule(child.period > 0
                     ? now + child.period
                     : now + std::max<SimDuration>(0, ch.delay),
                 ch.action);
      }
    }
    if (act.period > 0 && state[a] == State::kPending) {
      // Cancelled mid-callback means no re-arm (and no sequence number),
      // mirroring the engine's kAuxCancelled check after the callback.
      if (n >= act.max_fires) {
        state[a] = State::kDone;
      } else {
        queue.push(Ev{now + act.period, next_seq++, e.action});
      }
    }
  }
  return log;
}

using DelayFn = SimDuration (*)(std::mt19937_64&);

/// Times that stress the wheel's bucket math: every level's bucket width
/// +/- 1 (level 0's is also the heap/wheel routing edge, and each higher
/// level's is the horizon of the level below), sub-bucket (heap) delays, and
/// beyond-horizon values.
SimDuration InterestingDelay(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0:
      return static_cast<SimDuration>(rng() % TimerWheel::BucketWidth(0));
    case 1:
      return TimerWheel::BucketWidth(1) + static_cast<SimDuration>(rng() % 3) -
             1;
    case 2:
      return TimerWheel::BucketWidth(2) + static_cast<SimDuration>(rng() % 3) -
             1;
    case 3:
      return TimerWheel::Horizon(TimerWheel::kLevels - 1) +
             static_cast<SimDuration>(rng() % Sec(100));  // top-level clamp
    case 4:
      return TimerWheel::BucketWidth(0) + static_cast<SimDuration>(rng() % 3) -
             1;
    default:
      return static_cast<SimDuration>(rng() % Sec(2));
  }
}

/// Half the delays are exactly zero; the rest cover the near heap band, the
/// routing edge and the far wheel band, so one timestamp can hold zero-delay,
/// heap and wheel entries at once.
SimDuration ZeroBiasedDelay(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0:
    case 1:
    case 2:
    case 3:
      return 0;
    case 4:
      return static_cast<SimDuration>(rng() % TimerWheel::BucketWidth(0));
    case 5:
      return Simulation::kFarDelay + static_cast<SimDuration>(rng() % 3) - 1;
    case 6:
      return Simulation::kFarDelay +
             static_cast<SimDuration>(rng() % Ms(20));  // far: wheel
    default:
      return static_cast<SimDuration>(rng() % Ms(1));
  }
}

Script MakeScript(std::uint64_t seed, DelayFn delay_fn) {
  std::mt19937_64 rng(seed);
  constexpr int kActions = 160;
  constexpr int kRoots = 24;
  Script s;
  s.actions.resize(kActions);

  // Periodic actions: ~1 in 8. Short periods collide with zero-delay
  // timestamps and keep the Every heap path covered; long ones re-file
  // through the wheel levels.
  for (Action& a : s.actions) {
    if (rng() % 8 == 0) {
      static constexpr SimDuration kPeriods[] = {
          Us(1), Us(40), Us(64), Us(700), Ms(5), Ms(50), Ms(400), Sec(3)};
      a.period = kPeriods[rng() % (sizeof(kPeriods) / sizeof(kPeriods[0]))];
      a.max_fires = 1 + static_cast<int>(rng() % 5);
    }
  }

  // A forest: roots take the first ids, every other action is the child of
  // exactly one earlier action, so nothing is double-scheduled. Frequent
  // root ties put several chains at the same timestamp.
  for (int i = 0; i < kRoots; ++i) {
    s.roots.push_back(Root{static_cast<SimTime>(rng() % Ms(40)), i});
    if (rng() % 3 == 0 && i > 0) s.roots.back().at = s.roots[i - 1].at;  // tie
  }
  for (int i = kRoots; i < kActions; ++i) {
    const int parent = static_cast<int>(rng() % static_cast<std::uint64_t>(i));
    s.actions[static_cast<std::size_t>(parent)].children.push_back(
        ChildOp{delay_fn(rng), i});
  }
  // Cancels: any action may cancel any other (stale/idle targets are
  // deliberate no-ops on both engines). With zero-biased delays many of
  // these hit an entry from a callback running at the entry's own timestamp.
  for (int i = 0; i < kActions; ++i) {
    if (rng() % 3 == 0) {
      s.actions[static_cast<std::size_t>(i)].cancels.push_back(
          static_cast<int>(rng() % kActions));
    }
  }
  return s;
}

std::string FirstDivergence(const FireLog& a, const FireLog& b) {
  std::ostringstream os;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      os << "first divergence at fire " << i << ": (" << a[i].first << ", a"
         << a[i].second << ") vs (" << b[i].first << ", a" << b[i].second
         << ")";
      return os.str();
    }
  }
  os << "common prefix of " << n << " fires; sizes " << a.size() << " vs "
     << b.size();
  return os.str();
}

TEST(TimerWheelDifferential, MatchesHeapAndReferenceOnRandomSchedules) {
  const std::pair<const char*, DelayFn> generators[] = {
      {"interesting", &InterestingDelay}, {"zero-biased", &ZeroBiasedDelay}};
  for (const auto& [name, delay_fn] : generators) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      const Script script = MakeScript(seed, delay_fn);
      const FireLog ref = RunOnReference(script);
      for (const bool wheel : {true, false}) {
        const FireLog log = RunOnSimulation(script, wheel);
        EXPECT_EQ(log, ref) << name << " delays, wheel=" << wheel
                            << ", seed " << seed << "; "
                            << FirstDivergence(log, ref);
      }
      EXPECT_FALSE(ref.empty()) << "degenerate script, seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Wheel-specific units.
// ---------------------------------------------------------------------------

TEST(TimerWheel, RoutesByDelay) {
  Simulation sim;
  int fired = 0;
  sim.After(0, [&] { ++fired; });                          // heap
  sim.After(Simulation::kFarDelay - 1, [&] { ++fired; });  // heap
  sim.After(Simulation::kFarDelay, [&] { ++fired; });      // wheel
  sim.After(Ms(10), [&] { ++fired; });                     // wheel
  EXPECT_EQ(sim.stats().wheel_scheduled, 2u);
  EXPECT_EQ(sim.stats().wheel_occupancy, 2u);
  EXPECT_EQ(sim.pending_events(), 4u);
  sim.RunAll();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.stats().wheel_occupancy, 0u);
  EXPECT_EQ(sim.stats().wheel_to_heap, 2u);
}

TEST(TimerWheel, DisabledEngineNeverUsesWheel) {
  Simulation sim;
  sim.SetTimerWheelEnabled(false);
  int fired = 0;
  sim.After(Ms(10), [&] { ++fired; });
  EXPECT_EQ(sim.stats().wheel_scheduled, 0u);
  sim.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, CancelInBucketNeverTouchesHeap) {
  Simulation sim;
  bool fired = false;
  EventHandle h = sim.After(Ms(100), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_EQ(sim.pending_events(), 1u);
  h.Cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(sim.pending_events(), 0u);
  const auto st = sim.stats();
  EXPECT_EQ(st.wheel_cancelled, 1u);
  EXPECT_EQ(st.cancelled_popped + st.cancelled_purged, 0u);
  sim.RunAll();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_fired(), 0u);
}

TEST(TimerWheel, CancelAfterCascadeTakesHeapPath) {
  Simulation sim;
  bool fired = false;
  // Ms(300) lands in level 1 (bucket start 262144 us). Running to 299500 us
  // first cascades that bucket into level 0 (bucket start 299008 us), then
  // flushes the level-0 bucket into the heap — without firing the timer.
  EventHandle h = sim.After(Ms(300), [&] { fired = true; });
  sim.RunUntil(Us(299500));
  EXPECT_GE(sim.stats().wheel_cascades, 2u);
  EXPECT_EQ(sim.stats().wheel_to_heap, 1u);
  EXPECT_EQ(sim.stats().wheel_occupancy, 0u);
  EXPECT_TRUE(h.pending());
  h.Cancel();  // entry now lives in the heap: the normal lazy-cancel path
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(sim.stats().wheel_cancelled, 0u);
  sim.RunAll();
  EXPECT_FALSE(fired);
}

TEST(TimerWheel, CancelledBucketTombstoneCannotKillRecycledSlot) {
  Simulation sim;
  bool a_fired = false;
  bool b_fired = false;
  EventHandle a = sim.After(Ms(50), [&] { a_fired = true; });
  a.Cancel();  // frees the slot while the bucket entry still exists
  // Reuses the freed slot with a fresh generation; the stale bucket entry
  // must be dropped at cascade without affecting this event.
  EventHandle b = sim.After(Ms(60), [&] { b_fired = true; });
  sim.RunAll();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
  EXPECT_EQ(sim.events_fired(), 1u);
  EXPECT_FALSE(b.pending());
}

TEST(TimerWheel, EveryReArmsAcrossWheelLevels) {
  Simulation sim;
  std::vector<SimTime> at;
  // Sec(3) sits in level 1; each re-arm re-files through the wheel.
  EventHandle h = sim.Every(Sec(3), [&] { at.push_back(sim.Now()); });
  sim.RunUntil(Sec(10));
  EXPECT_EQ(at, (std::vector<SimTime>{Sec(3), Sec(6), Sec(9)}));
  EXPECT_TRUE(h.pending());
  EXPECT_GE(sim.stats().wheel_scheduled, 3u);
  h.Cancel();
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.RunUntil(Sec(20));
  EXPECT_EQ(at.size(), 3u);
}

TEST(TimerWheel, BeyondHorizonTimersFireAtExactTimes) {
  Simulation sim;
  std::vector<int> order;
  const SimTime far = TimerWheel::Horizon(TimerWheel::kLevels - 1) * 3 + 17;
  sim.At(far + Us(1), [&] { order.push_back(2); });
  sim.At(far, [&] { order.push_back(1); });
  sim.At(far + Us(1), [&] { order.push_back(3); });  // tie
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), far + Us(1));
  EXPECT_GE(sim.stats().wheel_cascades, 3u);  // clamp re-cascades make progress
}

TEST(TimerWheel, DrainedWheelFilesNewTimersAgainstTheCallersClock) {
  // RunAll flushes a cancelled level-1 guard, the wheel's only entry, which
  // moves the wheel clock to that bucket's start (262 ms) while the engine
  // stays at 0. A 10 ms timer filed afterwards must still fire at 10 ms,
  // between the 7 ms and 11 ms heap events, not after them.
  Simulation sim;
  sim.At(Ms(300), [] {}).Cancel();
  sim.RunAll();
  ASSERT_EQ(sim.Now(), 0);
  std::vector<std::pair<char, SimTime>> fired;
  const auto record = [&](char name) { fired.emplace_back(name, sim.Now()); };
  sim.At(Ms(10), [&] { record('A'); });
  sim.At(Us(3000), [&] {
    record('N');
    sim.After(Us(4000), [&] {
      record('M');
      sim.After(Us(4000), [&] { record('P'); });
    });
  });
  sim.RunAll();
  EXPECT_EQ(fired, (std::vector<std::pair<char, SimTime>>{
                       {'N', Us(3000)}, {'M', Us(7000)}, {'A', Ms(10)},
                       {'P', Us(11000)}}));
}

TEST(TimerWheel, StandaloneInsertCascadeRoundTrip) {
  TimerWheel wheel;
  std::vector<TimerWheel::Entry> out;
  // Two level-0 entries in different buckets, one entry in each higher
  // level and an overflow entry, inserted out of order.
  const SimTime times[] = {Us(100), Ms(5), Sec(1), Sec(600), Sec(5000)};
  std::uint64_t seq = 0;
  for (int i = 4; i >= 0; --i) {
    wheel.Insert(TimerWheel::Entry{times[i], seq++, static_cast<uint32_t>(i),
                                   1},
                 /*ref=*/0);
  }
  EXPECT_EQ(wheel.entries(), 5u);
  EXPECT_LE(wheel.EarliestBound(), times[0]);
  while (!wheel.empty()) {
    wheel.CascadeEarliest([](const TimerWheel::Entry&) { return true; },
                          [&](const TimerWheel::Entry& e) {
                            out.push_back(e);
                          });
  }
  ASSERT_EQ(out.size(), 5u);
  // Emission happens bucket-by-bucket in bound order, so times arrive
  // non-decreasing; each entry keeps its original payload.
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].time, times[i]);
    EXPECT_EQ(out[i].slot, static_cast<std::uint32_t>(i));
  }
}

}  // namespace
}  // namespace grunt::sim
