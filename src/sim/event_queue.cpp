#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

namespace xmem::sim {

namespace {
// 4-ary heap indexing. A wider node trades one extra comparison per level
// for half the levels of a binary heap — fewer cache misses on sift-down,
// which dominates run_next().
constexpr std::size_t kArity = 4;

constexpr std::size_t parent_of(std::size_t i) { return (i - 1) / kArity; }
constexpr std::size_t first_child_of(std::size_t i) { return i * kArity + 1; }
}  // namespace

std::uint32_t EventQueue::alloc_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoSlot;
    slots_[slot].live = true;
    return slot;
  }
  slots_.emplace_back();
  const auto slot = static_cast<std::uint32_t>(slots_.size() - 1);
  slots_[slot].live = true;
  return slot;
}

void EventQueue::free_slot(std::uint32_t slot) {
  assert(!slots_[slot].live && "freeing a live slot");
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::kill_slot(std::uint32_t slot) {
  assert(slots_[slot].live && "killing a dead slot");
  slots_[slot].live = false;
  ++slots_[slot].gen;  // invalidate outstanding EventIds
  slots_[slot].cb.reset();
}

EventId EventQueue::schedule(Time at, Callback cb) {
  assert(cb && "scheduling an empty callback");
  const std::uint32_t slot = alloc_slot();
  slots_[slot].cb = std::move(cb);
  heap_.push_back(HeapEntry{at, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  ++scheduled_count_;
  return EventId{this, slot, slots_[slot].gen};
}

void EventQueue::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (!slot_matches(slot, gen)) return;  // stale handle or already dead
  kill_slot(slot);
  ++dead_in_heap_;
  if (!heap_.empty() && heap_.front().slot == slot) {
    reclaim_front();
  } else {
    maybe_compact();
  }
}

void EventQueue::sift_up(std::size_t i) {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t p = parent_of(i);
    if (!before(e, heap_[p])) break;
    heap_[i] = heap_[p];
    i = p;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const HeapEntry e = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    const std::size_t first = first_child_of(i);
    if (first >= n) break;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::pop_front_entry() {
  const HeapEntry e = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Shallow heaps: the refilled element often belongs near the top, so
  // the textbook early-exit sift-down wins.
  constexpr std::size_t kFloydThreshold = 256;
  if (n <= kFloydThreshold) {
    heap_[0] = e;
    sift_down(0);
    return;
  }
  // Deep heaps — Floyd's bottom-up deletion: the refill element came from
  // the bottom and almost always belongs near the bottom again. Walk the
  // min-child path all the way down and then sift up (usually zero
  // steps); this saves the against-parent comparison that the textbook
  // sift-down pays at every level.
  std::size_t i = 0;
  while (true) {
    const std::size_t first = first_child_of(i);
    if (first >= n) break;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
  sift_up(i);
}

void EventQueue::reclaim_front() {
  while (!heap_.empty() && !slots_[heap_.front().slot].live) {
    free_slot(heap_.front().slot);
    --dead_in_heap_;
    pop_front_entry();
  }
}

void EventQueue::maybe_compact() {
  if (dead_in_heap_ < kCompactMinDead || dead_in_heap_ * 2 < heap_.size()) {
    return;
  }
  // Filter the dead entries out in place, then rebuild the heap property
  // bottom-up — O(n) total, amortized O(1) per cancellation.
  std::size_t kept = 0;
  for (const HeapEntry& e : heap_) {
    if (slots_[e.slot].live) {
      heap_[kept++] = e;
    } else {
      free_slot(e.slot);
    }
  }
  heap_.resize(kept);
  dead_in_heap_ = 0;
  if (kept > 1) {
    for (std::size_t i = parent_of(kept - 1) + 1; i-- > 0;) sift_down(i);
  }
}

Time EventQueue::next_time() const {
  assert(!heap_.empty() && "next_time on empty queue");
  return heap_.front().time;
}

Time EventQueue::run_next() {
  assert(!heap_.empty() && "run_next on empty queue");
  const HeapEntry e = heap_.front();
  assert(slots_[e.slot].live && "front-live invariant violated");
  // Take ownership of the callback and retire the event *before* running
  // it: the callback may schedule new events, cancel others, or query the
  // queue, all of which must see this event as already fired.
  Callback cb = std::move(slots_[e.slot].cb);
  kill_slot(e.slot);
  free_slot(e.slot);
  pop_front_entry();
  reclaim_front();
  cb();
  return e.time;
}

}  // namespace xmem::sim
