// The event queue at the heart of the discrete-event engine.
//
// Events are (time, sequence, callback) triples. Sequence numbers break
// time ties in insertion order, which makes simulations fully
// deterministic: two events scheduled for the same instant always fire in
// the order they were scheduled.
//
// Layout: a flat 4-ary implicit min-heap of 24-byte {time, seq, slot}
// entries, ordered by (time, seq), over a slab of pooled slots that own
// the callbacks. Slots are recycled through a free list, so a steady-state
// simulation schedules events with zero allocator traffic: the heap and
// slab vectors reach their high-water mark and stay there, and callbacks
// up to InlineFunction::kInlineBytes live inside the slot itself.
//
// Cancellation is an O(1) generation bump on the slot (EventId is a
// {queue, slot, generation} triple — stale handles simply fail the
// generation check). The dead heap entry is reclaimed lazily: immediately
// if it sits at the front, during pops as it surfaces, or in a
// threshold-triggered compaction sweep once dead entries amount to half
// the heap. The queue maintains the invariant that the front of the heap
// is always a live event, which keeps empty() and next_time() honest
// const observers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/time.hpp"

namespace xmem::sim {

class EventQueue;

/// Handle to a scheduled event; allows cancellation.
///
/// Copyable and cheap (16 bytes, no allocation); all copies refer to the
/// same scheduled event. A default-constructed EventId refers to nothing
/// and cancel() is a no-op. Handles must not outlive the queue that
/// issued them (in practice: the Simulator owns the queue and every
/// component holding an EventId).
class EventId {
 public:
  EventId() = default;

  /// Cancel the event if it has not fired yet. Idempotent; no-op on
  /// stale or default-constructed handles.
  void cancel() const;

  /// True if the event is still pending (scheduled, not fired, not
  /// cancelled).
  [[nodiscard]] bool pending() const;

 private:
  friend class EventQueue;
  EventId(EventQueue* queue, std::uint32_t slot, std::uint32_t gen)
      : queue_(queue), slot_(slot), gen_(gen) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// A time-ordered queue of callbacks.
///
/// Not a public entry point in most code; components talk to Simulator,
/// which owns one of these. Non-copyable and non-movable: outstanding
/// EventIds point back at this object.
class EventQueue {
 public:
  using Callback = InlineFunction;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `cb` to run at absolute time `at`.
  EventId schedule(Time at, Callback cb);

  /// True if no pending (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Upper bound on the number of pending events: includes cancelled
  /// entries that have not yet been reclaimed.
  [[nodiscard]] std::size_t size_bound() const { return heap_.size(); }

  /// Exact number of pending (live) events.
  [[nodiscard]] std::size_t live_count() const {
    return heap_.size() - dead_in_heap_;
  }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] Time next_time() const;

  /// Pop and run the earliest pending event, returning its time.
  /// Precondition: !empty().
  Time run_next();

  /// Total events ever scheduled (telemetry / tests).
  [[nodiscard]] std::uint64_t scheduled_count() const {
    return scheduled_count_;
  }

 private:
  friend class EventId;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Heap entry: 24 bytes, ordered by (time, seq). The callback lives in
  /// the slot slab so heap sift operations move only these entries.
  struct HeapEntry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Pooled owner of one scheduled callback. `gen` is bumped every time
  /// the event dies (fires or is cancelled), invalidating EventIds that
  /// captured the old value. `live` distinguishes a cancelled slot whose
  /// heap entry has not been reclaimed yet from an armed one.
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
    bool live = false;
  };

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  [[nodiscard]] bool slot_matches(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen &&
           slots_[slot].live;
  }

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  /// Mark a live slot dead: bump the generation, drop the callback.
  void kill_slot(std::uint32_t slot);

  void cancel_slot(std::uint32_t slot, std::uint32_t gen);

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Remove the front entry, refilling the hole via Floyd's bottom-up
  /// deletion (cheaper than a textbook sift-down for pops).
  void pop_front_entry();

  /// Pop dead entries off the front until the heap is empty or its front
  /// is live — the invariant every public observer relies on.
  void reclaim_front();
  /// Sweep all dead entries out of the heap and rebuild it in O(n), once
  /// they amount to half the heap (and at least kCompactMinDead).
  void maybe_compact();

  static constexpr std::size_t kCompactMinDead = 64;

  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t dead_in_heap_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t scheduled_count_ = 0;
};

inline void EventId::cancel() const {
  if (queue_) queue_->cancel_slot(slot_, gen_);
}

inline bool EventId::pending() const {
  return queue_ != nullptr && queue_->slot_matches(slot_, gen_);
}

}  // namespace xmem::sim
