// InflightTable: the requester state a reliable primitive keeps per
// shard, in one place for all three primitives and the apps (Count
// Sketch and the KV accelerator expire unanswered ops with it).
//
// Each shard holds its in-flight ops in a deque in issue order. A channel
// issues PSNs monotonically, and a reconnect resumes from the channel's
// next PSN, so issue order IS PSN order: replay, reclaim and expiry walk
// the deque front to back with no hash and no sort, across the 24-bit
// wrap too. Lookups binary-search by circular distance from the front
// (the oldest op), which is monotonic along the deque.
//
// Beside the ops, the table owns what every primitive's recovery needs:
// one fixed deadline, the expiry walk over it, and the primitive's single
// recovery timer. The primitive keeps its op payload, its completion and
// abandon logic, and its recovery policy (the timer callback).
//
// Re-entrancy: for_each() must not add or remove ops on the shard it
// walks. Rounds whose actions can reach a health transition (and through
// it a reclaim or fresh posts) snapshot keys() first and look each key
// up again with find()/erase(); expire() does exactly that.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "roce/headers.hpp"
#include "sim/simulator.hpp"

namespace xmem::core {

template <class Op>
class InflightTable {
 public:
  struct Entry {
    roce::Psn psn;
    sim::Time sent_at = 0;
    Op op;
  };

  struct Key {
    std::size_t shard = 0;
    roce::Psn psn;
  };

  /// `shards` deques with one deadline, `timeout`; `on_timer` runs when
  /// the timer armed by arm() fires with ops still in flight, after which
  /// the timer re-arms itself. Throws std::invalid_argument on a timeout
  /// <= 0, which would re-arm at the same instant forever.
  InflightTable(sim::Simulator& sim, std::size_t shards, sim::Time timeout,
                std::function<void()> on_timer)
      : sim_(&sim),
        timeout_(timeout),
        on_timer_(std::move(on_timer)),
        shards_(shards) {
    if (timeout <= 0) {
      throw std::invalid_argument("InflightTable: timeout must be > 0");
    }
  }
  // The timer callback captures `this`.
  InflightTable(const InflightTable&) = delete;
  InflightTable& operator=(const InflightTable&) = delete;

  /// Record an op just posted on `shard` with `psn`, sent now. PSNs on a
  /// shard only grow, so this appends. Does not arm the timer.
  void add(std::size_t shard, roce::Psn psn, Op op) {
    std::deque<Entry>& ops = shards_[shard];
    assert((ops.empty() || roce::psn_lt(ops.back().psn, psn)) &&
           "ops must be added in PSN order");
    ops.push_back(Entry{psn, sim_->now(), std::move(op)});
    ++size_;
  }

  [[nodiscard]] Entry* find(std::size_t shard, roce::Psn psn) {
    std::deque<Entry>& ops = shards_[shard];
    const auto it = first_at_or_after(ops, psn);
    return it != ops.end() && it->psn == psn ? &*it : nullptr;
  }

  /// Remove `psn` (answered, abandoned or lost). nullopt if absent (a
  /// duplicate or stale response).
  std::optional<Entry> erase(std::size_t shard, roce::Psn psn) {
    std::deque<Entry>& ops = shards_[shard];
    const auto it = first_at_or_after(ops, psn);
    if (it == ops.end() || it->psn != psn) return std::nullopt;
    std::optional<Entry> out(std::move(*it));
    ops.erase(it);
    --size_;
    return out;
  }

  /// Remove and return every op of `shard`, in PSN order (reclaim).
  std::deque<Entry> take(std::size_t shard) {
    std::deque<Entry> out;
    out.swap(shards_[shard]);
    size_ -= out.size();
    return out;
  }

  /// Call fn(Entry&) on the shard's ops in PSN order, starting at the
  /// first op at or after `from` (all of them when nullopt).
  template <class Fn>
  void for_each(std::size_t shard, Fn&& fn,
                std::optional<roce::Psn> from = std::nullopt) {
    std::deque<Entry>& ops = shards_[shard];
    auto it = from ? first_at_or_after(ops, *from) : ops.begin();
    for (; it != ops.end(); ++it) fn(*it);
  }

  /// Snapshot of the ops for which pred(shard, entry) holds, in (shard,
  /// PSN) order.
  template <class Pred>
  [[nodiscard]] std::vector<Key> keys(Pred&& pred) const {
    std::vector<Key> out;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      for (const Entry& e : shards_[s]) {
        if (pred(s, e)) out.push_back(Key{s, e.psn});
      }
    }
    return out;
  }

  /// Remove every op sent at least one deadline ago and pass it to
  /// fn(shard, Entry&), in (shard, PSN) order. The expired set is
  /// snapshotted first, so fn may add or remove ops: one that an earlier
  /// call removed (a down transition's take()) is skipped.
  template <class Fn>
  void expire(Fn&& fn) {
    const sim::Time now = sim_->now();
    for (const Key& key : keys([&](std::size_t, const Entry& e) {
           return now - e.sent_at >= timeout_;
         })) {
      if (auto e = erase(key.shard, key.psn)) fn(key.shard, *e);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t size(std::size_t shard) const {
    return shards_[shard].size();
  }

  /// Schedule the recovery timer one deadline from now unless it is
  /// already pending.
  void arm() {
    if (timer_.pending()) return;
    timer_ = sim_->schedule_in(timeout_, [this]() {
      if (size_ == 0) return;  // all settled; the next post re-arms
      on_timer_();
      arm();
    });
  }

 private:
  /// First op whose PSN is at or after `psn`. Circular distance from the
  /// front is monotonic along the deque, so it can be binary-searched.
  static typename std::deque<Entry>::iterator first_at_or_after(
      std::deque<Entry>& ops, roce::Psn psn) {
    if (ops.empty()) return ops.end();
    const roce::Psn front = ops.front().psn;
    const std::int32_t target = roce::psn_distance(front, psn);
    return std::partition_point(ops.begin(), ops.end(), [&](const Entry& e) {
      return roce::psn_distance(front, e.psn) < target;
    });
  }

  sim::Simulator* sim_;
  sim::Time timeout_;
  std::function<void()> on_timer_;
  std::vector<std::deque<Entry>> shards_;  // issue order == PSN order
  std::size_t size_ = 0;
  sim::EventId timer_;
};

}  // namespace xmem::core
