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
// each shard's deadline (the fixed timeout, or an AdaptiveRto with its
// own jitter stream) and the primitive's single recovery timer. The
// primitive keeps its op payload, its completion and abandon logic, and
// its recovery policy (the timer callback).
//
// Re-entrancy: for_each() must not add or remove ops on the shard it
// walks. Rounds whose actions can reach a health transition (and through
// it a reclaim or fresh posts) snapshot keys() first and look each key
// up again with find()/erase().
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/adaptive_rto.hpp"
#include "roce/headers.hpp"
#include "sim/simulator.hpp"

namespace xmem::core {

template <class Op>
class InflightTable {
 public:
  struct Entry {
    roce::Psn psn;
    sim::Time sent_at = 0;
    /// Karn's rule: a response to an op that was ever retransmitted may
    /// answer either transmission, so its RTT must not feed the
    /// estimator. Set by the primitive when it reposts the op.
    bool retransmitted = false;
    Op op;
  };

  struct Key {
    std::size_t shard = 0;
    roce::Psn psn;
  };

  /// `shards` deques. Every shard's deadline is `fixed_timeout` unless
  /// `rto.enabled`; `on_timer` runs when the timer armed by arm() fires
  /// with ops still in flight, after which the timer re-arms itself.
  /// Throws std::invalid_argument on a deadline that would re-arm at the
  /// same instant forever (a timeout, initial_rto or min_rto <= 0), on
  /// min_rto > max_rto, and on a max_backoff at which the backed-off RTO
  /// overflows sim::Time.
  InflightTable(sim::Simulator& sim, std::size_t shards,
                sim::Time fixed_timeout, const AdaptiveRtoConfig& rto,
                std::function<void()> on_timer)
      : sim_(&sim),
        fixed_timeout_(fixed_timeout),
        adaptive_(rto.enabled),
        on_timer_(std::move(on_timer)),
        shards_(shards) {
    if (fixed_timeout <= 0 || rto.initial_rto <= 0 || rto.min_rto <= 0) {
      throw std::invalid_argument(
          "InflightTable: timeout, initial_rto and min_rto must be > 0");
    }
    if (rto.min_rto > rto.max_rto) {
      throw std::invalid_argument("InflightTable: min_rto exceeds max_rto");
    }
    if (rto.max_backoff >= 63 ||
        std::max(rto.initial_rto, rto.max_rto) >
            std::numeric_limits<sim::Time>::max() >> rto.max_backoff) {
      throw std::invalid_argument(
          "InflightTable: max_backoff overflows the backed-off RTO");
    }
    for (std::size_t i = 0; i < shards; ++i) {
      AdaptiveRtoConfig rc = rto;
      rc.jitter_seed ^= i * 0x2545f4914f6cdd1dULL;  // per-shard jitter stream
      shards_[i].rto = AdaptiveRto(rc);
    }
  }
  // The timer callback captures `this`.
  InflightTable(const InflightTable&) = delete;
  InflightTable& operator=(const InflightTable&) = delete;

  /// Record an op just posted on `shard` with `psn`, sent now. PSNs on a
  /// shard only grow, so this appends. Does not arm the timer.
  void add(std::size_t shard, roce::Psn psn, Op op) {
    std::deque<Entry>& ops = shards_[shard].ops;
    assert((ops.empty() || roce::psn_lt(ops.back().psn, psn)) &&
           "ops must be added in PSN order");
    ops.push_back(Entry{psn, sim_->now(), false, std::move(op)});
    ++size_;
  }

  [[nodiscard]] Entry* find(std::size_t shard, roce::Psn psn) {
    std::deque<Entry>& ops = shards_[shard].ops;
    const auto it = first_at_or_after(ops, psn);
    return it != ops.end() && it->psn == psn ? &*it : nullptr;
  }

  /// Remove `psn` without an RTT sample (abandoned, lost, or answered by
  /// a response that says nothing about the path). nullopt if absent.
  std::optional<Entry> erase(std::size_t shard, roce::Psn psn) {
    std::deque<Entry>& ops = shards_[shard].ops;
    const auto it = first_at_or_after(ops, psn);
    if (it == ops.end() || it->psn != psn) return std::nullopt;
    std::optional<Entry> out(std::move(*it));
    ops.erase(it);
    --size_;
    return out;
  }

  /// Remove `psn` as answered, and apply both halves of Karn's rule: the
  /// RTT feeds the shard's estimator (which also ends any backoff) only
  /// if the op was never retransmitted. nullopt if absent (a duplicate).
  std::optional<Entry> complete(std::size_t shard, roce::Psn psn) {
    std::optional<Entry> done = erase(shard, psn);
    if (done && !done->retransmitted) {
      shards_[shard].rto.sample(sim_->now() - done->sent_at);
    }
    return done;
  }

  /// Remove and return every op of `shard`, in PSN order (reclaim).
  std::deque<Entry> take(std::size_t shard) {
    std::deque<Entry> out;
    out.swap(shards_[shard].ops);
    size_ -= out.size();
    return out;
  }

  /// Call fn(Entry&) on the shard's ops in PSN order, starting at the
  /// first op at or after `from` (all of them when nullopt).
  template <class Fn>
  void for_each(std::size_t shard, Fn&& fn,
                std::optional<roce::Psn> from = std::nullopt) {
    std::deque<Entry>& ops = shards_[shard].ops;
    auto it = from ? first_at_or_after(ops, *from) : ops.begin();
    for (; it != ops.end(); ++it) fn(*it);
  }

  /// Snapshot of the ops for which pred(shard, entry) holds, in (shard,
  /// PSN) order.
  template <class Pred>
  [[nodiscard]] std::vector<Key> keys(Pred&& pred) const {
    std::vector<Key> out;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      for (const Entry& e : shards_[s].ops) {
        if (pred(s, e)) out.push_back(Key{s, e.psn});
      }
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t size(std::size_t shard) const {
    return shards_[shard].ops.size();
  }

  /// The shard's RTT estimator (drives deadlines only when adaptive).
  [[nodiscard]] const AdaptiveRto& rto(std::size_t shard) const {
    return shards_[shard].rto;
  }
  /// The shard's current deadline: adaptive (backoff and jitter applied)
  /// when enabled, the fixed timeout otherwise.
  [[nodiscard]] sim::Time timeout(std::size_t shard) const {
    return adaptive_ ? shards_[shard].rto.rto() : fixed_timeout_;
  }
  /// The earliest deadline over all shards: one timer serves them all.
  [[nodiscard]] sim::Time min_timeout() const {
    sim::Time t = timeout(0);
    for (std::size_t s = 1; s < shards_.size(); ++s) {
      t = std::min(t, timeout(s));
    }
    return t;
  }
  /// A silent round on `shard`: the next deadline backs off.
  void note_timeout(std::size_t shard) { shards_[shard].rto.note_timeout(); }
  /// Forget the shard's path history (the server was replaced).
  void reset_rto(std::size_t shard) { shards_[shard].rto.reset(); }

  /// Schedule the recovery timer at the earliest deadline unless it is
  /// already pending.
  void arm() {
    if (timer_.pending()) return;
    timer_ = sim_->schedule_in(min_timeout(), [this]() {
      if (size_ == 0) return;  // all settled; the next post re-arms
      on_timer_();
      arm();
    });
  }

 private:
  struct Shard {
    std::deque<Entry> ops;  // issue order == PSN order
    AdaptiveRto rto;
  };

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
  sim::Time fixed_timeout_;
  bool adaptive_;
  std::function<void()> on_timer_;
  std::vector<Shard> shards_;
  std::size_t size_ = 0;
  sim::EventId timer_;
};

}  // namespace xmem::core
