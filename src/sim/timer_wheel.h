#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/time_types.h"

namespace grunt::sim {

/// Hierarchical timing wheel (Varghese & Lauer) backing store for far-out
/// events: insertion and cancellation are O(1) bucket pushes and generation
/// bumps instead of O(log n) heap sifts, which is the right trade for
/// RPC-timeout churn where ~99% of entries never fire.
///
/// Four levels of 64 buckets each with a 64 us level-0 tick cover delays up
/// to ~17.9 minutes (64^4 * 64 us); anything further sits clamped in the top
/// level's last bucket and re-cascades a full top-level lap at a time until
/// it fits. Each level's window is the 64 buckets starting at the bucket
/// containing `base_`, the wheel's own monotone clock. `base_` advances only
/// to flushed-bucket boundaries (never past a pending entry), so a bucket's
/// absolute index — and with it a lower bound on every entry time inside —
/// can always be reconstructed from its 6-bit position plus the window
/// start. Entries carry their original (time, seq) key, so when a bucket is
/// cascaded into the caller's heap the global firing order is exactly what a
/// heap-only run would produce: the wheel is a placement optimization, not a
/// reordering.
///
/// The wheel never looks at slot metadata itself; the owner passes an
/// `alive` predicate at cascade time, so cancelled entries (dead
/// generations) are dropped lazily when their bucket is flushed.
class TimerWheel {
 public:
  /// Mirrors the owner's heap entry: the original (time, seq) priority key
  /// plus the (slot, gen) ticket used to drop dead entries at cascade.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static constexpr int kTickBits = 6;    ///< level-0 bucket spans 64 us
  static constexpr int kBucketBits = 6;  ///< 64 buckets per level
  static constexpr int kLevels = 4;
  static constexpr int kBuckets = 1 << kBucketBits;

  static constexpr int Shift(int level) {
    return kTickBits + kBucketBits * level;
  }
  /// Span of one bucket at `level`, in simulated microseconds.
  static constexpr SimDuration BucketWidth(int level) {
    return SimDuration{1} << Shift(level);
  }
  /// Total span a level's 64 buckets can address.
  static constexpr SimDuration Horizon(int level) {
    return BucketWidth(level) << kBucketBits;
  }
  bool empty() const { return entries_ == 0; }
  /// Raw entry count, including not-yet-flushed cancelled tombstones.
  std::size_t entries() const { return entries_; }

  /// Files `e` into the smallest level whose window can hold it. `ref` is
  /// the caller's current time; the wheel clock only moves forward
  /// (max(base_, ref)), which keeps every occupied bucket inside its
  /// level's reconstruction window. Requires e.time >= ref.
  void Insert(const Entry& e, SimTime ref) {
    if (ref > base_) base_ = ref;
    int level = 0;
    std::uint64_t idx = 0;
    for (;; ++level) {
      const std::uint64_t cur =
          static_cast<std::uint64_t>(base_) >> Shift(level);
      idx = static_cast<std::uint64_t>(e.time) >> Shift(level);
      if (idx < cur) idx = cur;  // defensive: never file behind the window
      if (idx - cur < kBuckets) break;
      if (level == kLevels - 1) {
        // Beyond the top horizon: clamp into the window's last bucket. Each
        // cascade of that bucket advances base_ by ~a full top-level lap, so
        // far-future entries make guaranteed progress toward fitting.
        idx = cur + kBuckets - 1;
        break;
      }
    }
    const auto b = static_cast<std::uint32_t>(idx & (kBuckets - 1));
    buckets_[level][b].push_back(e);
    occupied_[level] |= std::uint64_t{1} << b;
    ++entries_;
    const auto start = static_cast<SimTime>(idx) << Shift(level);
    if (start < next_bound_) next_bound_ = start;
  }

  /// Lower bound on every entry time in the wheel: at most the earliest
  /// occupied bucket's start. Safe direction only — an entry never fires
  /// before its bucket's bound, so cascading whenever bound <= the heap's
  /// top key keeps the merged order exact. Cached so the owner's per-event
  /// "does the wheel need attention?" check is one compare; the cache is
  /// refreshed exactly (by scanning the bitmaps) after every cascade, and
  /// inserts only lower it, so it never exceeds the true bound.
  SimTime EarliestBound() const { return next_bound_; }

  /// Flushes the earliest occupied bucket. Dead entries (per `alive`) are
  /// dropped; live level-0 entries go to `emit` (the owner's heap); live
  /// higher-level entries re-file into a strictly lower level because base_
  /// has advanced to the flushed bucket's start. Precondition: !empty().
  template <class AliveFn, class EmitFn>
  void CascadeEarliest(AliveFn&& alive, EmitFn&& emit) {
    int lvl = 0;
    std::uint64_t idx = 0;
    SimTime best = std::numeric_limits<SimTime>::max();
    for (int l = 0; l < kLevels; ++l) {
      if (occupied_[l] == 0) continue;
      const auto [i, bound] = FirstBucket(l);
      if (bound < best) {
        best = bound;
        lvl = l;
        idx = i;
      }
    }
    const auto b = static_cast<std::uint32_t>(idx & (kBuckets - 1));
    scratch_.clear();
    scratch_.swap(buckets_[lvl][b]);  // keeps both vectors' capacity warm
    occupied_[lvl] &= ~(std::uint64_t{1} << b);
    entries_ -= scratch_.size();
    if (best > base_) base_ = best;
    for (const Entry& e : scratch_) {
      if (!alive(e)) continue;
      if (lvl == 0) {
        emit(e);
      } else {
        Insert(e, base_);
      }
    }
    scratch_.clear();
    next_bound_ = std::numeric_limits<SimTime>::max();
    for (int l = 0; l < kLevels; ++l) {
      if (occupied_[l] == 0) continue;
      next_bound_ = std::min(next_bound_, FirstBucket(l).second);
    }
  }

 private:
  /// Reconstructs the first occupied bucket of `level` as (absolute index,
  /// start time). Rotating the bitmap so the window start sits at bit 0
  /// turns "first occupied at or after cur" into a countr_zero.
  /// Precondition: occupied_[level] != 0.
  std::pair<std::uint64_t, SimTime> FirstBucket(int level) const {
    const std::uint64_t cur =
        static_cast<std::uint64_t>(base_) >> Shift(level);
    const auto rot = static_cast<unsigned>(cur & (kBuckets - 1));
    const int r = std::countr_zero(std::rotr(occupied_[level], rot));
    const std::uint64_t idx = cur + static_cast<std::uint64_t>(r);
    return {idx, static_cast<SimTime>(idx) << Shift(level)};
  }

  SimTime base_ = 0;  ///< wheel clock; advances only to flushed-bucket starts
  /// Cached EarliestBound(); max() when the wheel is empty.
  SimTime next_bound_ = std::numeric_limits<SimTime>::max();
  std::size_t entries_ = 0;
  std::uint64_t occupied_[kLevels] = {};
  std::vector<Entry> buckets_[kLevels][kBuckets];
  std::vector<Entry> scratch_;  ///< bucket being flushed (capacity reused)
};

}  // namespace grunt::sim
