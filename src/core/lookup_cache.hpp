// Local SRAM cache for the lookup-table primitive (§3's "caching remote
// entries in switch SRAM").
//
// A bounded key -> Action map in front of the remote lookup path. Its
// three eviction policies share one segmented list (SLRU): a probation
// segment that new entries enter and victims leave from, and a protected
// segment that only kLfu uses.
//
//   kFifo  insertion order, hits ignored — the paper's baseline and the
//          cheapest to realize in hardware (a head pointer per way).
//   kLru   recency order — a hit moves the entry to the back of
//          probation, the victim is always the front.
//   kLfu   segmented LFU: a hit promotes into the protected segment,
//          which holds kProtectedFraction of capacity and whose overflow
//          demotes back to probation. One-hit wonders churn through
//          probation without displacing the hot working set — the
//          behaviour a heavy-tailed (Zipfian) popularity distribution
//          rewards.
//
// Beyond positive entries the cache stores two more kinds of fact:
//
//   Negative entries.  A remote READ that came back "no entry" can be
//   remembered for negative_ttl, so a scan of absent keys stops
//   re-issuing one remote READ per packet. Negative entries occupy
//   normal slots (the cache stays bounded) and expire lazily on hit.
//
//   Fill origin.  Every entry records the {shard, channel epoch} it was
//   filled from. The owning primitive compares the recorded epoch
//   against ChannelSet::epoch(shard) on every hit: a mismatch means the
//   server was reconnected (its memory possibly repopulated) since the
//   fill, and the entry must be refreshed rather than served.
//
// Invalidation is write-through from the control plane's point of view:
// whoever rewrites a remote entry calls invalidate() (or the primitive's
// invalidate_cached()) so the next packet refetches. The cache itself
// never talks to the network — it is a pure bounded map the primitive
// consults, which is exactly the register/SRAM budget a real switch
// pipeline could spend.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"
#include "switchsim/action.hpp"
#include "telemetry/metrics.hpp"

namespace xmem::core {

class LookupCache {
 public:
  enum class Policy : std::uint8_t { kFifo, kLru, kLfu };

  [[nodiscard]] static std::string_view policy_name(Policy policy);

  using Key = std::vector<std::uint8_t>;

  /// kLfu's protected segment holds this share of capacity, rounded
  /// down and leaving probation at least one slot; at capacity 1 there
  /// is no protected segment and kLfu degenerates to LRU.
  static constexpr double kProtectedFraction = 0.8;

  struct Config {
    /// Bounded capacity in entries (positive + negative); 0 disables.
    std::size_t capacity = 0;
    Policy policy = Policy::kLru;
    /// How long a "no entry" verdict stays servable locally (0 disables
    /// negative caching entirely). Throws std::invalid_argument when
    /// negative.
    sim::Time negative_ttl = 0;
  };

  struct Stats {
    std::uint64_t hits = 0;              // positive entries served
    std::uint64_t misses = 0;            // nothing servable found
    std::uint64_t inserts = 0;           // positive fills (first time)
    std::uint64_t refreshes = 0;         // positive fills over an entry
    std::uint64_t evictions = 0;         // capacity victims
    std::uint64_t invalidations = 0;     // invalidate() removals
    std::uint64_t negative_hits = 0;     // absent-key verdicts served
    std::uint64_t negative_inserts = 0;
    std::uint64_t negative_expired = 0;  // TTL lapses observed on hit
    std::uint64_t promotions = 0;        // kLfu probation -> protected
  };

  /// A servable entry. `action` is null iff `negative`; the pointer is
  /// valid until the next mutating call.
  struct Hit {
    const switchsim::Action* action = nullptr;
    bool negative = false;
    std::uint32_t shard = 0;
    std::uint32_t epoch = 0;
  };

  explicit LookupCache(Config config);
  LookupCache(const LookupCache&) = delete;
  LookupCache& operator=(const LookupCache&) = delete;

  [[nodiscard]] bool enabled() const { return config_.capacity > 0; }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t capacity() const { return config_.capacity; }
  [[nodiscard]] Policy policy() const { return config_.policy; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Probe for `key`. Counts a hit/negative-hit/miss; expires lapsed
  /// negative entries as a side effect.
  [[nodiscard]] std::optional<Hit> lookup(const Key& key, sim::Time now);

  /// Fill `key` with a fetched action (evicting a victim when full).
  /// Refills an existing entry in place — a refetch after invalidation
  /// or churn carries the newer remote value.
  void insert(const Key& key, const switchsim::Action& action,
              std::uint32_t shard, std::uint32_t epoch, sim::Time now);

  /// Remember that `key` has no remote entry. No-op when negative
  /// caching is disabled (negative_ttl == 0).
  void insert_negative(const Key& key, std::uint32_t shard,
                       std::uint32_t epoch, sim::Time now);

  /// Write-through invalidation hook: the control plane rewrote (or
  /// removed) `key`'s remote entry. True if a local copy was dropped.
  bool invalidate(const Key& key);

  /// Counters for every Stats field plus occupancy/capacity gauges under
  /// `<prefix>/...`. Null registry is a no-op.
  void attach_telemetry(telemetry::MetricsRegistry* registry,
                        const std::string& prefix);

 private:
  /// One cached entry. Nodes live in the map (stable addresses) and are
  /// threaded onto one of the two segment lists via prev/next.
  struct Node {
    const Key* key = nullptr;  // points at the owning map key
    switchsim::Action action;
    bool negative = false;
    sim::Time filled_at = 0;
    std::uint32_t shard = 0;
    std::uint32_t epoch = 0;
    std::uint8_t segment = 0;  // 0 probation, 1 protected (kLfu only)
    Node* prev = nullptr;
    Node* next = nullptr;
  };
  /// Intrusive list over nodes: front() is the eviction end, push_back()
  /// the most recently placed end.
  struct List {
    Node* head = nullptr;
    Node* tail = nullptr;
    std::size_t count = 0;

    void push_back(Node& n);
    void unlink(Node& n);
    void move_to_back(Node& n);
  };

  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<std::string_view>{}(std::string_view(
          reinterpret_cast<const char*>(k.data()), k.size()));
    }
  };

  /// Ensure a free slot exists, evicting the victim if needed, then
  /// fill (new or in-place) and place the node.
  Node& fill_slot(const Key& key, bool negative, std::uint32_t shard,
                  std::uint32_t epoch, sim::Time now);
  /// A hit (or in-place refill): reorder per policy, promoting a
  /// probation node when a protected segment exists.
  void touch(Node& node);
  [[nodiscard]] Node* victim() const;
  void erase_node(Node& node);

  Config config_;
  /// Derived from the policy: kLfu's protected share of capacity (0 for
  /// kFifo and kLru), and whether a hit reorders (all but kFifo).
  std::size_t protected_capacity_;
  bool reorder_on_hit_;
  List probation_;
  List protected_;
  std::unordered_map<Key, Node, KeyHash> map_;
  Stats stats_;
};

}  // namespace xmem::core
