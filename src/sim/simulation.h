#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/inplace_function.h"
#include "sim/timer_wheel.h"
#include "util/time_types.h"

namespace grunt::sim {

class Simulation;

/// Handle to a scheduled event; allows cancellation. Copyable; all copies
/// refer to the same event. A handle is a (slot, generation) ticket into the
/// simulation's event arena: once the event fires (or its slot is recycled)
/// the generation no longer matches and the handle becomes inert, so stale
/// handles can never cancel an unrelated later event.
///
/// Handles must not outlive the Simulation they came from.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. For repeating events
  /// (Simulation::Every) this stops the whole series. Idempotent.
  void Cancel();

  /// True if the event is still pending (scheduled, not fired, not
  /// cancelled). A repeating event stays pending until cancelled.
  bool pending() const;

 private:
  friend class Simulation;
  EventHandle(Simulation* sim, std::uint32_t slot, std::uint32_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulation* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// Single-threaded discrete-event simulation core.
///
/// Events scheduled for the same time fire in scheduling order (a
/// monotonically increasing sequence number breaks ties), which makes runs
/// fully deterministic.
///
/// The hot path is allocation-free: event closures live in slab-allocated
/// chunks (small-buffer-optimized, see InplaceFunction), the priority queue
/// is a 4-ary heap of 24-byte POD entries over a dense 16-byte-per-slot
/// metadata array, events at least kFarDelay out wait in a timing wheel
/// until they are near, and cancellation uses generation counters instead
/// of shared control blocks. Periodic events (Every) keep their callback in
/// one slot for the lifetime of the series and re-arm in place.
class Simulation {
 public:
  /// Allocation/cancellation counters for the engine micro-benchmarks.
  struct EngineStats {
    std::uint64_t events_scheduled = 0;
    std::uint64_t inline_callbacks = 0;  ///< closures stored in the slot SBO
    std::uint64_t heap_callbacks = 0;    ///< closures that spilled to heap
    std::uint64_t cancelled_popped = 0;  ///< cancelled entries dropped at pop
    std::uint64_t cancelled_purged = 0;  ///< removed by lazy compaction
    std::uint64_t compactions = 0;
    std::size_t slab_chunks = 0;
    std::uint64_t wheel_scheduled = 0;  ///< far-out events filed in the wheel
    std::uint64_t wheel_cancelled = 0;  ///< cancelled in-bucket (no heap work)
    std::uint64_t wheel_cascades = 0;   ///< bucket flushes
    std::uint64_t wheel_to_heap = 0;    ///< entries that cascaded into the heap
    std::size_t wheel_occupancy = 0;    ///< live entries in the wheel now
    // Always 0 (the immediate lane is gone); perfbench still reads both.
    std::uint64_t immediate_scheduled = 0;
    std::uint64_t immediate_cancelled = 0;
  };

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime Now() const { return now_; }

  /// Schedules `fn`, any void() callable, at absolute time `at` (must be >=
  /// Now()). The callable is constructed directly in its event slot (one
  /// placement-new, no temporary); an InplaceFunction rvalue is moved in.
  template <class F>
  EventHandle At(SimTime at, F&& fn) {
    if (at < now_) ThrowPastTime();
    const std::uint32_t id = AllocSlot();
    const bool inl = StoreCallback(id, std::forward<F>(fn));
    return FinishSchedule(at, id, /*period=*/0, inl);
  }

  /// Schedules `fn` after `delay` (clamped to >= 0) from Now().
  template <class F>
  EventHandle After(SimDuration delay, F&& fn) {
    return At(now_ + std::max<SimDuration>(0, delay), std::forward<F>(fn));
  }

  /// Schedules `fn` to run every `period`, first firing at Now() + `period`.
  /// The callback is stored once for the whole series (never copied per
  /// tick) and the event re-arms in place without allocating. Cancelling the
  /// returned handle stops the series.
  template <class F>
  EventHandle Every(SimDuration period, F&& fn) {
    if (period <= 0) ThrowBadPeriod();
    const std::uint32_t id = AllocSlot();
    const bool inl = StoreCallback(id, std::forward<F>(fn));
    return FinishSchedule(now_ + period, id, period, inl);
  }

  /// Runs until the event queue drains or `until` is reached, whichever is
  /// first. The clock is advanced to `until` on return if the queue drained
  /// earlier. Returns the number of events fired.
  std::uint64_t RunUntil(SimTime until);

  /// Runs until the event queue is empty. Returns the number of events fired.
  std::uint64_t RunAll();

  /// Requests that the current Run* call return after the in-flight event.
  void Stop() { stop_requested_ = true; }

  /// Enables/disables the timing wheel (default on). Affects future
  /// schedules only; already-filed wheel entries drain normally. Off, every
  /// event takes the heap path — the baseline the wheel benchmarks and
  /// differential tests compare against.
  void SetTimerWheelEnabled(bool enabled) { wheel_enabled_ = enabled; }
  bool timer_wheel_enabled() const { return wheel_enabled_; }

  /// The one routing rule: an event at least one level-0 wheel horizon out
  /// goes to the wheel, everything nearer to the heap (see EnqueueEntry).
  static constexpr SimDuration kFarDelay = TimerWheel::Horizon(0);

  std::uint64_t events_fired() const { return events_fired_; }
  /// Number of live (not cancelled) scheduled events, wherever they sit:
  /// heap, wheel, or the repeating slot whose callback is running right now
  /// (out of the heap mid-callback, but still pending per its handle).
  std::size_t pending_events() const {
    std::size_t n = heap_.size() - cancelled_in_heap_ + wheel_live_;
    if (firing_slot_ != kNilSlot &&
        (metas_[firing_slot_].aux & kAuxCancelled) == 0) {
      ++n;
    }
    return n;
  }
  EngineStats stats() const;

 private:
  friend class EventHandle;

  /// Dense per-slot bookkeeping, separate from the (much larger) closure
  /// storage so the queue's gen checks and the free list stay cache-hot.
  /// `aux` is dual-use: flag bits while the slot is live, the next free
  /// slot index while it sits on the free list.
  struct SlotMeta {
    std::uint32_t gen = 1;
    std::uint32_t aux = 0;
    SimDuration period = 0;  ///< > 0: repeating event (Every)
  };
  static constexpr std::uint32_t kAuxCancelled = 1;
  static constexpr std::uint32_t kAuxInWheel = 2;  ///< entry lives in wheel_

  /// Priority-queue entry: POD, cheap to sift. `gen` guards against slot
  /// recycling (an entry whose generation no longer matches is dead).
  struct QEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  // Composing the (time, seq) key into a single 128-bit compare keeps the
  // sift loops branch-predictable (one cmp/sbb pair instead of a nested
  // data-dependent branch on time equality).
  static unsigned __int128 Key(const QEntry& e) {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(e.time))
            << 64) |
           e.seq;
  }
  static bool EarlierKey(const QEntry& a, const QEntry& b) {
    return Key(a) < Key(b);
  }

  static constexpr std::uint32_t kNilSlot =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kSlotsPerChunk = 256;
  /// Compaction only kicks in for queues at least this large; below that the
  /// normal pop path drains cancelled entries quickly enough.
  static constexpr std::size_t kCompactMinHeap = 64;

  InplaceFunction& fn_slot(std::uint32_t id) {
    return fn_chunks_[id / kSlotsPerChunk][id % kSlotsPerChunk];
  }

  std::uint32_t AllocSlot();
  void FreeSlot(std::uint32_t id);
  /// Puts the callable in slot `id` and returns whether it sits in the SBO —
  /// compile-time-known for a raw callable, so the SBO-hit counter folds to
  /// a constant at those call sites.
  template <class F>
  bool StoreCallback(std::uint32_t id, F&& fn) {
    InplaceFunction& slot = fn_slot(id);
    if constexpr (std::is_same_v<std::decay_t<F>, InplaceFunction>) {
      slot = std::forward<F>(fn);
      return slot.is_inline();
    } else {
      return slot.Emplace(std::forward<F>(fn));
    }
  }
  /// Common tail of At/Every once the closure sits in slot `id`: bumps the
  /// stats, records the period, queues the entry, returns the handle.
  EventHandle FinishSchedule(SimTime time, std::uint32_t id,
                             SimDuration period, bool inline_cb);
  [[noreturn]] static void ThrowPastTime();
  [[noreturn]] static void ThrowBadPeriod();
  void PushEntry(SimTime time, std::uint32_t slot_id, std::uint32_t gen);
  /// Routes a ready-to-queue event to the wheel (at least kFarDelay out,
  /// wheel enabled) or the heap. Consumes one sequence number whichever store
  /// takes it, so firing order is independent of the backing store.
  void EnqueueEntry(SimTime time, std::uint32_t slot_id, std::uint32_t gen);
  /// Flushes wheel buckets into the heap while the wheel's earliest bound is
  /// <= min(limit, heap top). After it returns the heap top is the true
  /// global minimum among events at or before `limit`.
  void CascadeWheel(SimTime limit);
  // 4-ary min-heap over heap_ (shallower and more cache-friendly than a
  // binary heap; the sift loops are the engine's hottest code).
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);
  void PopTop();
  /// Drops cancelled/stale entries from the top of the heap.
  void PurgeTop();
  /// Removes all cancelled/stale entries when they outnumber live ones.
  void MaybeCompact();
  /// The settle step RunUntil and RunAll share: purges dead heap tops and
  /// cascades the wheel up to `limit`. Returns true if the heap top is then
  /// the global minimum and due at or before `limit`.
  bool Settle(SimTime limit);
  /// The fire step: pops the (settled, live) heap top and runs it.
  void FireTop();

  void CancelSlot(std::uint32_t slot_id, std::uint32_t gen);
  bool SlotPending(std::uint32_t slot_id, std::uint32_t gen) const;

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_fired_ = 0;
  bool stop_requested_ = false;

  std::vector<SlotMeta> metas_;
  std::vector<std::unique_ptr<InplaceFunction[]>> fn_chunks_;
  std::uint32_t free_head_ = kNilSlot;
  /// Repeating slot whose callback is on the stack right now (kNilSlot
  /// otherwise). A live slot is in the heap unless it is this one, which
  /// spares PushEntry/FireTop an in-heap flag update per event.
  std::uint32_t firing_slot_ = kNilSlot;

  std::vector<QEntry> heap_;  ///< 4-ary min-heap ordered by (time, seq)
  std::size_t cancelled_in_heap_ = 0;

  TimerWheel wheel_;  ///< far-out events until their level expires
  std::size_t wheel_live_ = 0;  ///< live (not cancelled) entries in wheel_
  bool wheel_enabled_ = true;

  EngineStats stats_;
};

}  // namespace grunt::sim
