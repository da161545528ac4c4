// Remote lookup table primitive (§4).
//
// A fixed-entry-size match-action table in server DRAM, indexed by a hash
// of a packet-derived key. On a local-SRAM-cache miss the switch
// "bounces" the packet: an RDMA WRITE deposits the original packet in the
// entry's packet slot (so the switch holds no per-packet state while the
// lookup is outstanding), an immediately following RDMA READ returns the
// whole entry — {action, key-check, packet} — and the switch applies the
// action to the returned packet and forwards it. Optionally the action is
// cached in local SRAM (core::LookupCache, FIFO/LRU/segmented-LFU).
//
// The §7 alternative is also implemented: kRecirculate holds the original
// packet in the pipeline (recirculating) and READs only the 16-byte
// action, saving the packet's round trip to remote memory.
//
// The local SRAM cache is a core::LookupCache (see lookup_cache.hpp):
// bounded, with pluggable FIFO/LRU/segmented-LFU eviction, negative
// entries for absent keys, and write-through invalidation
// (invalidate_cached()) for control-plane updates. Entries are tagged
// with the {shard, channel epoch} they were filled from; a hit whose
// epoch no longer matches the shard's (the server was reconnected, its
// memory possibly repopulated) is refetched instead of served. While a
// shard is *down* its epoch is unchanged, so the cache keeps serving
// hits through the outage (Config::degraded_cache selects that or a
// full bypass) and only misses degrade to passthrough.
//
// The table may be sharded across several memory servers ("We maintain
// the complete virtual-to-physical address mapping table on servers in a
// sharded fashion", §2.2) through a core::ChannelSet: entry index i lives
// on shard i % K at slot i / K, so capacity and lookup bandwidth scale
// with server count. When a shard is down, packets whose entry lives
// there degrade to the local-miss default action — they pass through the
// pipeline un-looked-up rather than bounce into a black hole — and a
// timeout scavenger reclaims lookups that were in flight when the server
// died (feeding the health state machine that detects the failure).
//
// Remote entry layout (entry_bytes total):
//   [ 0..16)  Action (switchsim::Action serialized)
//   [16..24)  key-check hash (written at populate time; detects index
//             collisions, which address-based remote memory cannot
//             otherwise see — §7's "no exact matching" caveat)
//   [24..28)  u32 deposited frame length
//   [28.. )   deposited frame bytes
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/adaptive_rto.hpp"
#include "core/channel_set.hpp"
#include "core/inflight.hpp"
#include "core/lookup_cache.hpp"
#include "switchsim/switch.hpp"

namespace xmem::core {

class LookupTablePrimitive {
 public:
  enum class Mode {
    kBounce,       // paper's design: deposit the packet remotely
    kRecirculate,  // §7 alternative: hold the packet, fetch action only
  };

  /// Derives the lookup key from a packet; nullopt = not subject to the
  /// table (forwarded normally). Default: the five-tuple key bytes.
  using KeyFn = std::function<std::optional<std::vector<std::uint8_t>>(
      const net::Packet&)>;

  /// What the cache does for packets whose home shard is down.
  enum class DegradedCacheMode : std::uint8_t {
    /// Serve local copies through the outage (their epoch is unchanged
    /// until a reconnect, so they are as fresh as the dead server's
    /// memory); only misses degrade to passthrough. The default.
    kServeHits,
    /// Skip the cache entirely: all traffic for the dead shard takes the
    /// degraded passthrough path, hits included. For deployments where
    /// an outage implies the remote entries are being rewritten.
    kBypass,
  };

  struct Config {
    Mode mode = Mode::kBounce;
    std::size_t entry_bytes = 2048;
    /// Local SRAM cache capacity in entries (0 disables caching).
    std::size_t cache_capacity = 0;
    /// Eviction policy. nullopt resolves the XMEM_CACHE_POLICY
    /// environment override (the CI cache-policy matrix) and falls back
    /// to LRU; an explicit value always wins.
    std::optional<LookupCache::Policy> cache_policy;
    /// Remember absent-key READ verdicts locally for this long, so a
    /// stream of misses on the same dead key stops re-issuing remote
    /// READs. 0 disables negative caching.
    sim::Time negative_ttl = 0;
    /// kLfu only: protected-segment share of cache capacity.
    double lfu_protected_fraction = 0.8;
    DegradedCacheMode degraded_cache = DegradedCacheMode::kServeHits;
    KeyFn key_fn;  // default: five-tuple
    std::uint64_t hash_seed = 0x9e3779b97f4a7c15ULL;
    /// Outstanding lookups older than this are abandoned (their switch
    /// state reclaimed) and reported to the shard's health machinery.
    sim::Time lookup_timeout = sim::microseconds(100);
    /// Adaptive deadline: when enabled, each shard's abandonment
    /// deadline tracks its measured lookup RTT and backs off across
    /// consecutive expiry rounds — under DCQCN pacing the true response
    /// time stretches, and a fixed deadline would abandon (and re-issue)
    /// lookups that are merely paced, feeding the congestion. Disabled
    /// keeps the fixed lookup_timeout.
    AdaptiveRtoConfig adaptive_rto;
    /// Failover thresholds/probing for the channel set.
    ChannelSet::Config health;
  };

  struct Stats {
    std::uint64_t cache_hits = 0;
    std::uint64_t remote_lookups = 0;
    std::uint64_t applied = 0;          // actions applied to packets
    std::uint64_t no_entry_drops = 0;   // kNone / kDrop actions
    std::uint64_t collision_drops = 0;  // key-check mismatch
    std::uint64_t cache_inserts = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t held_packets = 0;     // recirculate-mode high-water mark
    std::uint64_t lost_responses = 0;   // lookups abandoned (timeout/failover)
    std::uint64_t oversized_drops = 0;  // packet too big for the entry slot
    std::uint64_t degraded_passthrough = 0;  // home shard down: no lookup
    std::uint64_t duplicate_responses = 0;   // stale/duplicated deliveries
    std::uint64_t negative_cache_drops = 0;  // absent-key verdict served locally
    std::uint64_t cache_hits_while_down = 0; // hits served during an outage
    std::uint64_t cache_stale_refetches = 0; // epoch-mismatch entries refetched
    std::uint64_t degraded_bypass = 0;       // kBypass: cache skipped, shard down
  };

  // Entry layout constants.
  static constexpr std::size_t kActionOffset = 0;
  static constexpr std::size_t kKeyHashOffset = 16;
  static constexpr std::size_t kLenOffset = 24;
  static constexpr std::size_t kFrameOffset = 28;

  /// Sharded over `channels` (at least one; all regions equally sized).
  /// Throws std::invalid_argument on an invalid channel list or config.
  LookupTablePrimitive(switchsim::ProgrammableSwitch& sw,
                       std::vector<control::RdmaChannelConfig> channels,
                       Config config);
  /// Single-server convenience (a pool of 1).
  LookupTablePrimitive(switchsim::ProgrammableSwitch& sw,
                       control::RdmaChannelConfig channel, Config config)
      : LookupTablePrimitive(
            sw, std::vector<control::RdmaChannelConfig>{std::move(channel)},
            std::move(config)) {}

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const RdmaChannel& channel(std::size_t shard = 0) const {
    return channels_.at(shard);
  }
  [[nodiscard]] const ChannelSet& channels() const { return channels_; }
  [[nodiscard]] ChannelSet& channels() { return channels_; }
  [[nodiscard]] std::size_t shard_count() const { return channels_.size(); }
  /// The shard's RTT estimator (meaningful only with adaptive_rto on).
  [[nodiscard]] const AdaptiveRto& rto(std::size_t shard) const {
    return inflight_.rto(shard);
  }
  /// Total entries across all shards.
  [[nodiscard]] std::size_t table_entries() const { return n_entries_; }
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  /// The local SRAM cache (policy, occupancy, its own Stats).
  [[nodiscard]] const LookupCache& cache() const { return cache_; }
  /// Lookups currently in flight (bounce READs + held recirc originals).
  [[nodiscard]] std::size_t outstanding() const { return inflight_.size(); }

  /// Register every Stats field plus outstanding-lookup gauges under
  /// `<prefix>/...`, and delegate per-shard channel + health metrics to
  /// `<prefix>/shard<i>/...`. Either pointer may be null.
  void attach_telemetry(telemetry::MetricsRegistry* registry,
                        telemetry::OpTracer* tracer,
                        const std::string& prefix);

  /// Swap in a rebuilt channel for `shard` after its server's RNIC was
  /// restart()ed and ChannelController::reconnect produced `config`.
  /// Lookups still in flight against the old epoch are reclaimed as
  /// lost_responses first (their responses can never arrive on the new
  /// queue pair). Bumps the shard's channel epoch, so cached entries
  /// filled before the reconnect refetch lazily on their next hit.
  void reconnect(std::size_t shard, control::RdmaChannelConfig config);

  /// Write-through invalidation hook: the control plane rewrote (or
  /// removed) `key`'s remote entry — drop any local copy so the next
  /// packet refetches the new value. True if a copy was dropped.
  bool invalidate_cached(std::span<const std::uint8_t> key);

  /// --- Control-plane population ---------------------------------------
  /// Hash `key` to its entry index (what the data plane computes).
  [[nodiscard]] static std::uint64_t index_for_key(
      std::span<const std::uint8_t> key, std::size_t n_entries,
      std::uint64_t seed);
  /// Write {action, key-check} into `key`'s slot of a remote region
  /// (performed by the control plane at initialization, via local access
  /// on the memory server). Returns the index used.
  static std::uint64_t install_entry(std::span<std::uint8_t> region,
                                     std::size_t entry_bytes,
                                     std::span<const std::uint8_t> key,
                                     const switchsim::Action& action,
                                     std::uint64_t seed);

  /// Key-check hash (a second, independent hash of the key).
  [[nodiscard]] static std::uint64_t key_check_hash(
      std::span<const std::uint8_t> key);

  /// Sharded population helper: writes {action, key-check} for `key`
  /// into whichever of `regions` (one span per shard, equal sizes) owns
  /// its index. Returns {shard, slot-within-shard}.
  static std::pair<std::size_t, std::uint64_t> install_entry_sharded(
      std::span<const std::span<std::uint8_t>> regions,
      std::size_t entry_bytes, std::span<const std::uint8_t> key,
      const switchsim::Action& action, std::uint64_t seed);

 private:
  void on_ingress(switchsim::PipelineContext& ctx);
  void handle_response(std::size_t shard, const roce::RoceMessage& msg);
  void remote_lookup(switchsim::PipelineContext& ctx, std::uint64_t idx);
  void on_health_change(std::size_t shard, ChannelSet::Health health);
  void reclaim_shard(std::size_t shard);
  void on_timeout();
  /// Apply `action` to `packet`; returns the egress port, or nullopt if
  /// the packet should be dropped.
  [[nodiscard]] std::optional<int> apply_action(
      const switchsim::Action& action, net::Packet& packet);
  /// Fill the cache from a remote verdict (positive or "no entry"),
  /// tagged with the fill shard's current channel epoch.
  void cache_store(const std::vector<std::uint8_t>& key,
                   const switchsim::Action& action, std::size_t shard);
  void cache_store_negative(const std::vector<std::uint8_t>& key,
                            std::size_t shard);
  /// Mirror the cache's hit/insert/eviction totals into Stats, so the
  /// legacy counters (and their telemetry registrations) stay truthful.
  void sync_cache_stats();

  switchsim::ProgrammableSwitch* switch_;
  ChannelSet channels_;
  Config config_;
  LookupCache cache_;
  std::size_t n_entries_ = 0;         // total across shards
  std::size_t entries_per_shard_ = 0;

  /// Outstanding READs. Each op is the held original in recirculate
  /// mode, and an empty packet in bounce mode (the original was deposited
  /// in the entry and comes back with it).
  InflightTable<net::Packet> inflight_;

  Stats stats_;
};

}  // namespace xmem::core
