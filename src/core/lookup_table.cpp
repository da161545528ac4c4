#include "core/lookup_table.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "net/bytes.hpp"
#include "net/flow.hpp"

namespace xmem::core {

using switchsim::Action;
using switchsim::PipelineContext;

namespace {

std::optional<std::vector<std::uint8_t>> five_tuple_key(
    const net::Packet& packet) {
  auto tuple = net::extract_five_tuple(packet);
  if (!tuple) return std::nullopt;
  const auto k = tuple->key_bytes();
  return std::vector<std::uint8_t>(k.begin(), k.end());
}

LookupCache::Config cache_config_from(
    const LookupTablePrimitive::Config& config) {
  LookupCache::Config cc;
  cc.capacity = config.cache_capacity;
  cc.policy = config.cache_policy.value_or(
      LookupCache::policy_from_env(LookupCache::Policy::kLru));
  cc.negative_ttl = config.negative_ttl;
  cc.lfu_protected_fraction = config.lfu_protected_fraction;
  return cc;
}

}  // namespace

LookupTablePrimitive::LookupTablePrimitive(
    switchsim::ProgrammableSwitch& sw,
    std::vector<control::RdmaChannelConfig> channels, Config config)
    : switch_(&sw),
      channels_(sw, std::move(channels), config.health),
      config_(std::move(config)),
      cache_(cache_config_from(config_)),
      inflight_(sw.simulator(), channels_.size(), config_.lookup_timeout,
                config_.adaptive_rto, [this]() { on_timeout(); }) {
  if (config_.entry_bytes <= kFrameOffset) {
    throw std::invalid_argument(
        "LookupTable: entry_bytes must exceed the entry header");
  }
  if (!config_.key_fn) config_.key_fn = five_tuple_key;
  entries_per_shard_ = channels_.slots_per_shard(config_.entry_bytes);
  n_entries_ = entries_per_shard_ * channels_.size();
  channels_.set_health_fn([this](std::size_t shard, ChannelSet::Health h) {
    on_health_change(shard, h);
  });

  sw.add_ingress_stage("lookup-table",
                       [this](PipelineContext& ctx) { on_ingress(ctx); });
}

void LookupTablePrimitive::attach_telemetry(
    telemetry::MetricsRegistry* registry, telemetry::OpTracer* tracer,
    const std::string& prefix) {
  if (registry != nullptr) {
    auto counter = [&](const char* field, const std::uint64_t* value,
                       const char* unit) {
      registry->register_counter(
          prefix + "/" + field,
          [value]() { return static_cast<std::int64_t>(*value); }, unit);
    };
    counter("cache_hits", &stats_.cache_hits, "lookups");
    counter("remote_lookups", &stats_.remote_lookups, "lookups");
    counter("applied", &stats_.applied, "packets");
    counter("no_entry_drops", &stats_.no_entry_drops, "packets");
    counter("collision_drops", &stats_.collision_drops, "packets");
    counter("cache_inserts", &stats_.cache_inserts, "entries");
    counter("cache_evictions", &stats_.cache_evictions, "entries");
    counter("held_packets", &stats_.held_packets, "packets");
    counter("lost_responses", &stats_.lost_responses, "ops");
    counter("oversized_drops", &stats_.oversized_drops, "packets");
    counter("duplicate_responses", &stats_.duplicate_responses, "ops");
    counter("degraded_passthrough", &stats_.degraded_passthrough, "packets");
    counter("negative_cache_drops", &stats_.negative_cache_drops, "packets");
    counter("cache_hits_while_down", &stats_.cache_hits_while_down, "lookups");
    counter("cache_stale_refetches", &stats_.cache_stale_refetches, "lookups");
    counter("degraded_bypass", &stats_.degraded_bypass, "packets");
    registry->register_gauge(
        prefix + "/outstanding",
        [this]() { return static_cast<double>(outstanding()); }, "lookups");
    registry->register_gauge(
        prefix + "/cache_size",
        [this]() { return static_cast<double>(cache_.size()); }, "entries");
  }
  cache_.attach_telemetry(registry, prefix + "/cache");
  channels_.attach_telemetry(registry, tracer, prefix);
}

std::uint64_t LookupTablePrimitive::index_for_key(
    std::span<const std::uint8_t> key, std::size_t n_entries,
    std::uint64_t seed) {
  return net::fnv1a(key, seed) % n_entries;
}

std::uint64_t LookupTablePrimitive::key_check_hash(
    std::span<const std::uint8_t> key) {
  // Independent second hash: different seed constant.
  return net::fnv1a(key, 0xdeadbeefcafef00dULL);
}

std::uint64_t LookupTablePrimitive::install_entry(
    std::span<std::uint8_t> region, std::size_t entry_bytes,
    std::span<const std::uint8_t> key, const Action& action,
    std::uint64_t seed) {
  const std::size_t n_entries = region.size() / entry_bytes;
  const std::uint64_t idx = index_for_key(key, n_entries, seed);

  std::vector<std::uint8_t> buf;
  buf.reserve(kLenOffset);
  net::ByteWriter w(buf);
  action.serialize(w);
  w.u64(key_check_hash(key));

  auto slot = region.subspan(idx * entry_bytes, entry_bytes);
  std::copy(buf.begin(), buf.end(), slot.begin());
  return idx;
}

std::pair<std::size_t, std::uint64_t>
LookupTablePrimitive::install_entry_sharded(
    std::span<const std::span<std::uint8_t>> regions, std::size_t entry_bytes,
    std::span<const std::uint8_t> key, const Action& action,
    std::uint64_t seed) {
  assert(!regions.empty());
  const std::size_t per_shard = regions.front().size() / entry_bytes;
  const std::size_t total = per_shard * regions.size();
  const std::uint64_t idx = index_for_key(key, total, seed);
  const std::size_t shard = idx % regions.size();
  const std::uint64_t slot = idx / regions.size();

  std::vector<std::uint8_t> buf;
  net::ByteWriter w(buf);
  action.serialize(w);
  w.u64(key_check_hash(key));
  auto dst = regions[shard].subspan(slot * entry_bytes, entry_bytes);
  std::copy(buf.begin(), buf.end(), dst.begin());
  return {shard, slot};
}

void LookupTablePrimitive::on_ingress(PipelineContext& ctx) {
  if (channels_.intercept(ctx, [this](std::size_t shard,
                                      const roce::RoceMessage& msg) {
        handle_response(shard, msg);
      })) {
    return;
  }

  auto key = config_.key_fn(ctx.packet);
  if (!key) return;  // not table traffic

  const std::uint64_t idx =
      index_for_key(*key, n_entries_, config_.hash_seed);
  const std::size_t home = channels_.home_shard(idx);
  const bool home_up = channels_.is_up(home);

  // Local SRAM cache first: a hit applies the action with no remote
  // access at all. With the home shard down the cache either keeps
  // serving hits through the outage (kServeHits — misses degrade) or is
  // skipped outright (kBypass — everything degrades).
  const bool bypass =
      !home_up &&
      config_.degraded_cache == DegradedCacheMode::kBypass;
  if (cache_.enabled() && bypass) ++stats_.degraded_bypass;
  if (cache_.enabled() && !bypass) {
    const sim::Time now = switch_->simulator().now();
    if (auto hit = cache_.lookup(*key, now)) {
      if (!hit->negative && hit->epoch != channels_.epoch(hit->shard)) {
        // Filled before the shard's last reconnect: the server's memory
        // may have been repopulated since. Refetch instead of serving.
        ++stats_.cache_stale_refetches;
        cache_.invalidate(*key);
        sync_cache_stats();
      } else if (hit->negative) {
        // Absent-key verdict served locally: same outcome as the remote
        // READ of an empty slot, without the READ.
        ++stats_.negative_cache_drops;
        sync_cache_stats();
        ctx.drop();
        return;
      } else {
        if (!home_up) ++stats_.cache_hits_while_down;
        auto egress = apply_action(*hit->action, ctx.packet);
        sync_cache_stats();
        if (egress) {
          ctx.egress_port = *egress;
        } else {
          ctx.drop();
        }
        return;
      }
    } else {
      sync_cache_stats();
    }
  }

  remote_lookup(ctx, idx);
}

void LookupTablePrimitive::remote_lookup(PipelineContext& ctx,
                                         std::uint64_t idx) {
  const auto shard = channels_.route(idx);
  if (!shard) {
    // Home shard down: degrade to the local-miss default action — the
    // packet passes through the pipeline un-looked-up instead of
    // bouncing into a dead server. No rehash: the entry stays put for
    // when the shard recovers.
    ++stats_.degraded_passthrough;
    return;
  }
  ++stats_.remote_lookups;
  const std::uint64_t slot = idx / channels_.size();
  RdmaChannel& channel = channels_.at(*shard);
  const std::uint64_t va =
      channel.config().base_va + slot * config_.entry_bytes;

  if (config_.mode == Mode::kBounce) {
    // Deposit the original packet into the entry's packet slot, then
    // read the whole entry back. No switch-side per-packet state.
    if (kFrameOffset + ctx.packet.size() > config_.entry_bytes) {
      // The slot cannot hold this packet; depositing would clobber the
      // neighbouring entry. Size entry_bytes for the MTU of table
      // traffic.
      ++stats_.oversized_drops;
      ctx.drop();
      return;
    }
    std::vector<std::uint8_t> deposit;
    deposit.reserve(4 + ctx.packet.size());
    net::ByteWriter w(deposit);
    w.u32(static_cast<std::uint32_t>(ctx.packet.size()));
    w.bytes(ctx.packet.bytes());
    channel.post_write(va + kLenOffset, deposit);

    const roce::Psn psn = channel.post_read(
        va, static_cast<std::uint32_t>(config_.entry_bytes));
    inflight_.add(*shard, psn, net::Packet{});
  } else {
    // Recirculate variant: hold the original, fetch only the action and
    // the key-check word.
    const roce::Psn psn = channel.post_read(
        va, static_cast<std::uint32_t>(kLenOffset));
    inflight_.add(*shard, psn, ctx.packet.clone());
    stats_.held_packets =
        std::max<std::uint64_t>(stats_.held_packets, inflight_.size());
  }
  ctx.consume();
  inflight_.arm();
}

void LookupTablePrimitive::handle_response(std::size_t shard,
                                           const roce::RoceMessage& msg) {
  if (!roce::is_read_response(msg.opcode())) return;
  auto done = inflight_.complete(shard, msg.bth.psn);
  if (!done) {
    ++stats_.duplicate_responses;  // stale or duplicated delivery
    return;
  }
  channels_.note_ok(shard);
  channels_.at(shard).trace_complete(msg.bth.psn);

  // Recirculate mode held the original; bounce mode recovers it from the
  // entry's packet slot, after the action and the key-check word.
  net::Packet packet = std::move(done->op);
  const bool negative_caching = cache_.enabled() && config_.negative_ttl > 0;
  try {
    net::ByteReader r(msg.payload);
    const Action action = Action::parse(r);
    const std::uint64_t stored_check = r.u64();
    const bool absent = action.kind == Action::Kind::kNone;
    if (absent) ++stats_.no_entry_drops;  // empty slot: no entry installed
    if (config_.mode == Mode::kBounce && (!absent || negative_caching)) {
      const std::uint32_t len = r.u32();
      const auto frame = r.bytes(len);
      packet =
          net::Packet(std::vector<std::uint8_t>(frame.begin(), frame.end()));
    }
    if (absent) {
      // The key is at hand, so the absence itself can be cached.
      if (negative_caching) {
        if (auto key = config_.key_fn(packet)) {
          cache_store_negative(*key, shard);
        }
      }
      return;
    }
    auto key = config_.key_fn(packet);
    if (!key || key_check_hash(*key) != stored_check) {
      ++stats_.collision_drops;
      return;
    }
    cache_store(*key, action, shard);
    auto egress = apply_action(action, packet);
    if (egress) {
      switch_->inject(std::move(packet), *egress);
    }
  } catch (const net::BufferError&) {
    ++stats_.lost_responses;
  }
}

void LookupTablePrimitive::on_health_change(std::size_t shard,
                                            ChannelSet::Health health) {
  if (health == ChannelSet::Health::kUp) return;
  // Down transition: every lookup in flight on this shard is now
  // unanswerable. Reclaim the switch-side state at once instead of
  // letting the scavenger expire it piecemeal; bounce-mode originals are
  // already in the dead server's DRAM and are simply lost.
  reclaim_shard(shard);
}

void LookupTablePrimitive::reconnect(std::size_t shard,
                                     control::RdmaChannelConfig config) {
  // Lookups in flight against the old NIC epoch will never answer
  // through the new channel (fresh QPN, stale READ responses cannot
  // alias it): reclaim them now instead of waiting for the scavenger.
  reclaim_shard(shard);
  channels_.reconnect(shard, std::move(config));
  inflight_.reset_rto(shard);  // old-server RTTs say nothing about the new
}

void LookupTablePrimitive::reclaim_shard(std::size_t shard) {
  // PSN order: trace completion must replay identically run to run.
  for (const auto& lookup : inflight_.take(shard)) {
    ++stats_.lost_responses;
    channels_.at(shard).trace_complete(lookup.psn, "failover");
  }
}

void LookupTablePrimitive::on_timeout() {
  const sim::Time now = switch_->simulator().now();
  const auto stale = inflight_.keys([&](std::size_t shard, const auto& l) {
    return now - l.sent_at >= inflight_.timeout(shard);
  });
  std::vector<bool> shard_expired(channels_.size(), false);
  for (const auto& key : stale) shard_expired[key.shard] = true;
  for (const auto& key : stale) {
    // A lookup abandoned: the packet it carried is gone either way
    // (deposited remotely in bounce mode, held copy dropped in recirc
    // mode). Each expiry is a timeout observation against its shard —
    // unless an earlier observation already tripped the down transition,
    // whose handler reclaimed the rest of the shard's keys.
    if (!inflight_.erase(key.shard, key.psn)) continue;
    ++stats_.lost_responses;
    channels_.at(key.shard).trace_complete(key.psn, "lost");
    channels_.note_timeout(key.shard);
  }
  // One backoff step per shard per round, however many lookups expired.
  for (std::size_t shard = 0; shard < shard_expired.size(); ++shard) {
    if (shard_expired[shard]) inflight_.note_timeout(shard);
  }
}

std::optional<int> LookupTablePrimitive::apply_action(const Action& action,
                                                      net::Packet& packet) {
  switch (action.kind) {
    case Action::Kind::kForward:
      ++stats_.applied;
      return action.port;
    case Action::Kind::kSetDscp:
      net::rewrite_dscp(packet, action.dscp);
      ++stats_.applied;
      return action.port;
    case Action::Kind::kRewriteDst: {
      // Virtual -> physical translation: rewrite L2 and L3 destination.
      const auto bytes = packet.mutable_bytes();
      const auto& mac = action.new_dst_mac.octets();
      std::copy(mac.begin(), mac.end(), bytes.begin());
      net::rewrite_dst_ip(packet, action.new_dst_ip);
      ++stats_.applied;
      return action.port;
    }
    case Action::Kind::kDrop:
    case Action::Kind::kNone:
      ++stats_.no_entry_drops;
      return std::nullopt;
  }
  return std::nullopt;
}

void LookupTablePrimitive::cache_store(const std::vector<std::uint8_t>& key,
                                       const Action& action,
                                       std::size_t shard) {
  if (!cache_.enabled()) return;
  cache_.insert(key, action, static_cast<std::uint32_t>(shard),
                channels_.epoch(shard), switch_->simulator().now());
  sync_cache_stats();
}

void LookupTablePrimitive::cache_store_negative(
    const std::vector<std::uint8_t>& key, std::size_t shard) {
  if (!cache_.enabled() || config_.negative_ttl <= 0) return;
  cache_.insert_negative(key, static_cast<std::uint32_t>(shard),
                         channels_.epoch(shard), switch_->simulator().now());
  sync_cache_stats();
}

bool LookupTablePrimitive::invalidate_cached(
    std::span<const std::uint8_t> key) {
  const bool dropped =
      cache_.invalidate(LookupCache::Key(key.begin(), key.end()));
  sync_cache_stats();
  return dropped;
}

void LookupTablePrimitive::sync_cache_stats() {
  const LookupCache::Stats& cs = cache_.stats();
  stats_.cache_hits = cs.hits;
  stats_.cache_inserts = cs.inserts;
  stats_.cache_evictions = cs.evictions;
}

}  // namespace xmem::core
