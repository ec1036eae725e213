#include "sim/simulation.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace grunt::sim {

void EventHandle::Cancel() {
  if (sim_ != nullptr) sim_->CancelSlot(slot_, gen_);
}

bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->SlotPending(slot_, gen_);
}

std::uint32_t Simulation::AllocSlot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t id = free_head_;
    SlotMeta& m = metas_[id];
    free_head_ = m.aux;  // aux holds the next free index while on the list
    m.aux = 0;
    return id;
  }
  const std::uint32_t id = static_cast<std::uint32_t>(metas_.size());
  if (id % kSlotsPerChunk == 0) {
    if (id == 0) {
      // One chunk's worth up front spares the first few hundred events the
      // doubling reallocations of metas_ and heap_.
      metas_.reserve(kSlotsPerChunk);
      heap_.reserve(kSlotsPerChunk);
    }
    fn_chunks_.push_back(std::make_unique<InplaceFunction[]>(kSlotsPerChunk));
  }
  metas_.emplace_back();
  return id;
}

void Simulation::FreeSlot(std::uint32_t id) {
  fn_slot(id).Reset();
  SlotMeta& m = metas_[id];
  m.period = 0;
  ++m.gen;  // invalidates every outstanding handle and queue entry
  m.aux = free_head_;
  free_head_ = id;
}

void Simulation::PushEntry(SimTime time, std::uint32_t slot_id,
                           std::uint32_t gen) {
  heap_.push_back(QEntry{time, next_seq_++, slot_id, gen});
  SiftUp(heap_.size() - 1);
}

void Simulation::EnqueueEntry(SimTime time, std::uint32_t slot_id,
                              std::uint32_t gen) {
  // One rule: anything at least one level-0 horizon out goes to the wheel,
  // everything nearer to the heap. A far-future event is pure ballast in the
  // heap: it sits near the bottom for thousands of pops, yet every near-term
  // push must sift past it. Filing it in a wheel bucket is O(1) now, a cancel
  // is a generation bump, and it re-enters the heap only when its due time
  // is close, keeping the heap's height proportional to the *near* event
  // population. Order stays exact either way — wheel entries keep their
  // (time, seq) key and CascadeWheel's bound merge never lets the heap fire
  // past an earlier bucket.
  if (wheel_enabled_ && time - now_ >= kFarDelay) {
    metas_[slot_id].aux |= kAuxInWheel;
    wheel_.Insert(TimerWheel::Entry{time, next_seq_++, slot_id, gen}, now_);
    ++wheel_live_;
    ++stats_.wheel_scheduled;
    return;
  }
  PushEntry(time, slot_id, gen);
}

void Simulation::CascadeWheel(SimTime limit) {
  // Cascade while a wheel bucket could hold an entry at or before both the
  // limit and the heap's current top. Bounds are lower bounds on entry
  // times, so "bound <= heap top" also covers same-time/smaller-seq ties —
  // after the loop the heap top is the true global minimum up to `limit`.
  for (;;) {
    if (wheel_.empty()) return;
    const SimTime bound = wheel_.EarliestBound();
    if (bound > limit) return;
    if (!heap_.empty() && bound > heap_.front().time) return;
    ++stats_.wheel_cascades;
    wheel_.CascadeEarliest(
        [this](const TimerWheel::Entry& e) {
          const SlotMeta& m = metas_[e.slot];
          return m.gen == e.gen && (m.aux & kAuxCancelled) == 0;
        },
        [this](const TimerWheel::Entry& e) {
          metas_[e.slot].aux &= ~kAuxInWheel;
          heap_.push_back(QEntry{e.time, e.seq, e.slot, e.gen});
          SiftUp(heap_.size() - 1);
          --wheel_live_;
          ++stats_.wheel_to_heap;
        });
  }
}

void Simulation::SiftUp(std::size_t i) {
  const QEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!EarlierKey(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulation::SiftDown(std::size_t i) {
  const QEntry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * 4 + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (EarlierKey(heap_[c], heap_[best])) best = c;
    }
    if (!EarlierKey(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void Simulation::PopTop() {
  // Bottom-up pop: sink the hole to a leaf picking the min child at each
  // level (no compare against the displaced back element on the way down),
  // then drop the back element into the hole and bubble it up the rare
  // level or two it belongs higher. Fewer compares and better-predicted
  // branches than the textbook sift-down for pop-heavy workloads.
  const QEntry back = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  QEntry* const h = heap_.data();
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * 4 + 1;
    if (first + 4 <= n) {
      // Full node: tournament min-of-4. The two first-round compares are
      // independent and the index selects compile to conditional moves, so
      // the descent has one data-dependent branch per level instead of
      // three.
      const std::size_t b01 = first + (EarlierKey(h[first + 1], h[first]));
      const std::size_t b23 =
          first + 2 + (EarlierKey(h[first + 3], h[first + 2]));
      const std::size_t best = EarlierKey(h[b23], h[b01]) ? b23 : b01;
      h[hole] = h[best];
      hole = best;
      continue;
    }
    if (first >= n) break;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < n; ++c) {
      if (EarlierKey(h[c], h[best])) best = c;
    }
    h[hole] = h[best];
    hole = best;
  }
  // Bubble `back` up from the leaf hole.
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!EarlierKey(back, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = back;
}

void Simulation::ThrowPastTime() {
  throw std::invalid_argument("Simulation::At: time in the past");
}

void Simulation::ThrowBadPeriod() {
  throw std::invalid_argument("Simulation::Every: period<=0");
}

EventHandle Simulation::FinishSchedule(SimTime time, std::uint32_t id,
                                       SimDuration period, bool inline_cb) {
  SlotMeta& m = metas_[id];
  if (period > 0) m.period = period;  // freed slots already carry period 0
  ++stats_.events_scheduled;
  stats_.inline_callbacks += inline_cb ? 1 : 0;
  const std::uint32_t gen = m.gen;
  EnqueueEntry(time, id, gen);
  return EventHandle(this, id, gen);
}

void Simulation::PurgeTop() {
  while (!heap_.empty()) {
    const QEntry e = heap_.front();
    const SlotMeta& m = metas_[e.slot];
    if (m.gen == e.gen && (m.aux & kAuxCancelled) == 0) return;
    PopTop();
    if (m.gen == e.gen) {
      --cancelled_in_heap_;
      ++stats_.cancelled_popped;
      FreeSlot(e.slot);
    }
  }
}

void Simulation::MaybeCompact() {
  if (heap_.size() < kCompactMinHeap ||
      cancelled_in_heap_ * 2 <= heap_.size()) {
    return;
  }
  auto keep = heap_.begin();
  for (auto it = heap_.begin(); it != heap_.end(); ++it) {
    const SlotMeta& m = metas_[it->slot];
    if (m.gen == it->gen && (m.aux & kAuxCancelled) == 0) {
      *keep++ = *it;
    } else {
      if (m.gen == it->gen) FreeSlot(it->slot);
      ++stats_.cancelled_purged;
    }
  }
  heap_.erase(keep, heap_.end());
  if (!heap_.empty()) {
    for (std::size_t i = (heap_.size() - 1) / 4 + 1; i-- > 0;) SiftDown(i);
  }
  cancelled_in_heap_ = 0;
  ++stats_.compactions;
}

bool Simulation::Settle(SimTime limit) {
  if (cancelled_in_heap_ != 0) PurgeTop();
  if (!wheel_.empty()) CascadeWheel(limit);
  return !heap_.empty() && heap_.front().time <= limit;
}

void Simulation::FireTop() {
  const QEntry e = heap_.front();
  PopTop();
  now_ = e.time;
  // metas_ can grow (and move) inside the callback; re-index after calling.
  // Closure storage is chunked and therefore address-stable throughout.
  const SimDuration period = metas_[e.slot].period;
  if (period > 0) {
    // Repeating event: the closure stays in its slot for the whole series
    // and is invoked in place — no copy, no allocation per tick.
    const std::uint32_t prev_firing = firing_slot_;  // tolerate re-entrant Run
    firing_slot_ = e.slot;
    fn_slot(e.slot)();
    firing_slot_ = prev_firing;
    ++events_fired_;
    SlotMeta& m = metas_[e.slot];
    if ((m.aux & kAuxCancelled) == 0) {
      // Re-arm after the callback so events it scheduled get earlier
      // sequence numbers (same ordering as a fire-then-reschedule chain).
      // A long-period series re-files into the wheel by the same rule.
      EnqueueEntry(now_ + period, e.slot, m.gen);
    } else {
      FreeSlot(e.slot);
    }
  } else {
    // One-shot: invalidate the handles up front (pending() is false inside
    // the callback, as with the old fired flag), invoke in place, then
    // recycle the slot. The slot cannot be reused mid-callback because it
    // only joins the free list after the callback returns.
    ++metas_[e.slot].gen;
    InplaceFunction& f = fn_slot(e.slot);
    f();
    ++events_fired_;
    f.Reset();
    SlotMeta& m = metas_[e.slot];
    m.aux = free_head_;
    free_head_ = e.slot;
  }
}

std::uint64_t Simulation::RunUntil(SimTime until) {
  stop_requested_ = false;
  std::uint64_t fired = 0;
  while (!stop_requested_ && Settle(until)) {
    FireTop();
    ++fired;
  }
  if (!stop_requested_) now_ = std::max(now_, until);
  return fired;
}

std::uint64_t Simulation::RunAll() {
  stop_requested_ = false;
  std::uint64_t fired = 0;
  while (!stop_requested_ && Settle(std::numeric_limits<SimTime>::max())) {
    FireTop();
    ++fired;
  }
  return fired;
}

void Simulation::CancelSlot(std::uint32_t slot_id, std::uint32_t gen) {
  if (slot_id >= metas_.size()) return;
  SlotMeta& m = metas_[slot_id];
  if (m.gen != gen || (m.aux & kAuxCancelled) != 0) return;
  // Wheel fast path: freeing the slot bumps its generation, which turns the
  // bucket entry into a tombstone dropped at cascade time. No heap sift, no
  // compaction bookkeeping — this is what makes cancel-heavy timer churn
  // cheap.
  if ((m.aux & kAuxInWheel) != 0) {
    --wheel_live_;
    ++stats_.wheel_cancelled;
    FreeSlot(slot_id);
    return;
  }
  m.aux |= kAuxCancelled;
  // A live slot has a heap entry unless it is the repeating event whose
  // callback is currently running; that one is released by FireTop after
  // the callback returns.
  if (slot_id != firing_slot_) {
    ++cancelled_in_heap_;
    MaybeCompact();
  }
}

bool Simulation::SlotPending(std::uint32_t slot_id, std::uint32_t gen) const {
  if (slot_id >= metas_.size()) return false;
  const SlotMeta& m = metas_[slot_id];
  return m.gen == gen && (m.aux & kAuxCancelled) == 0;
}

Simulation::EngineStats Simulation::stats() const {
  EngineStats out = stats_;
  out.heap_callbacks = out.events_scheduled - out.inline_callbacks;
  out.slab_chunks = fn_chunks_.size();
  out.wheel_occupancy = wheel_live_;
  return out;
}

}  // namespace grunt::sim
