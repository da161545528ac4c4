// Remote state-store primitive (§4).
//
// Per-flow counters in server DRAM updated with RDMA atomic
// Fetch-and-Add. For each sampled packet the switch conceptually clones
// the packet, truncates everything, and turns the husk into a F&A request
// for the flow's counter address. Because an RNIC sustains only a bounded
// number of outstanding atomics, the primitive tracks the in-flight count
// in a register and, when the window is full, accumulates counts locally,
// flushing the accumulated delta in the next F&A it can issue — which is
// both the paper's backpressure mechanism and (generalized by
// `combining_window`, §7) its bandwidth-reduction extension.
//
// The counter space may be sharded over several memory servers through a
// core::ChannelSet: counter index i lives on shard i % K at slot i / K,
// so capacity and (because each server's RNIC has its own atomic-rate
// cap and outstanding window) aggregate update throughput scale with
// server count. When a shard is down, its counters keep accumulating
// locally — the same machinery as window-full backpressure — and flush
// when the shard recovers.
//
// The optional reliability layer (§7) parses ACKs/NAKs: inflight adds are
// remembered per PSN and retransmitted on NAK or timeout; together with
// the responder's atomic replay cache this yields exactly-once counting
// over a lossy link. Across a shard outage, reliable mode holds the
// in-flight window and replays it in PSN order on recovery — still
// exactly-once, since the responder's replay cache survives. Only
// reconnect() to a restarted server (fresh epoch, empty replay cache)
// reclaims the window, folding the adds back into the accumulators for
// re-issue. Unreliable mode counts in-flight adds lost on any failover.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/adaptive_rto.hpp"
#include "core/channel_set.hpp"
#include "core/inflight.hpp"
#include "core/rdma_channel.hpp"
#include "switchsim/switch.hpp"

namespace xmem::core {

class StateStorePrimitive {
 public:
  /// Which packets update a counter, and which counter. Returns the
  /// counter index, or nullopt to ignore the packet.
  using SampleFn =
      std::function<std::optional<std::uint64_t>(const net::Packet&)>;

  struct Config {
    /// Maximum outstanding atomic requests per shard (the RNIC's
    /// advertised limit — each server enforces its own).
    int max_outstanding = 16;
    /// §7 combining: a flush carries up to this many packet counts per
    /// F&A. 1 reproduces the paper's per-packet behaviour with
    /// accumulate-on-backpressure; larger values trade update delay for
    /// bandwidth.
    std::uint64_t combining_window = 1;
    /// Default sampler: hash the five-tuple over `counters()` slots.
    SampleFn sample_fn;
    std::uint64_t hash_seed = 0x517cc1b727220a95ULL;
    /// §7 reliability extension (see file comment).
    bool reliable = false;
    sim::Time retransmit_timeout = sim::microseconds(100);
    /// Adaptive RTO: when enabled, each shard's retransmission deadline
    /// is derived from its measured RTT (Jacobson estimation) and backs
    /// off exponentially across consecutive silent rounds, instead of
    /// the fixed retransmit_timeout. Disabled keeps the fixed timer.
    AdaptiveRtoConfig adaptive_rto;
    /// Minimum spacing between NAK-triggered go-back-N repost rounds
    /// (every out-of-order arrival generates a NAK; answering each with
    /// a full repost storm would feed on itself). Chaos plans compress
    /// this to speed up recovery under heavy loss.
    sim::Time goback_min_interval = sim::microseconds(20);
    /// Failover thresholds/probing for the channel set.
    ChannelSet::Config health;
  };

  struct Stats {
    std::uint64_t sampled_packets = 0;   // packets that matched the sampler
    std::uint64_t fetch_adds_sent = 0;
    std::uint64_t acks_received = 0;
    std::uint64_t naks_received = 0;
    std::uint64_t accumulated = 0;       // counts deferred to a later F&A
    std::uint64_t retransmits = 0;
    std::uint64_t max_outstanding_seen = 0;  // per-shard high-water mark
    std::uint64_t counts_in_flight_lost = 0;  // unreliable mode only
    std::uint64_t failover_reissues = 0;  // reliable in-flight re-accumulated
    /// Responses (ACK or NAK) discarded as duplicates of one already
    /// processed — the network delivered the same frame twice.
    std::uint64_t duplicate_responses = 0;
  };

  /// Sharded over `channels` (at least one; all regions equally sized).
  /// Throws std::invalid_argument on an invalid channel list or config.
  StateStorePrimitive(switchsim::ProgrammableSwitch& sw,
                      std::vector<control::RdmaChannelConfig> channels,
                      Config config);
  /// Single-server convenience (a pool of 1).
  StateStorePrimitive(switchsim::ProgrammableSwitch& sw,
                      control::RdmaChannelConfig channel, Config config)
      : StateStorePrimitive(
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
  /// Counter slots available across all shards.
  [[nodiscard]] std::uint64_t counters() const { return n_counters_; }
  /// Total in-flight atomics across shards.
  [[nodiscard]] int outstanding() const {
    return static_cast<int>(inflight_.size());
  }
  /// Counts recorded locally but not yet flushed (accumulators + any
  /// combining residue).
  [[nodiscard]] std::uint64_t unflushed() const;
  /// True when every observed count has been sent and acknowledged.
  [[nodiscard]] bool quiescent() const {
    return outstanding() == 0 && unflushed() == 0;
  }

  /// Force-flush accumulators (subject to the per-shard outstanding
  /// window and shard health); used at the end of measurement runs.
  void flush();

  /// Swap in a rebuilt channel for `shard` after its server's RNIC was
  /// restart()ed and ChannelController::reconnect produced `config`.
  /// The shard's in-flight atomics are reclaimed first — the new epoch's
  /// replay cache cannot answer their reposts — with reliable mode
  /// folding the adds back into the accumulators for re-issue.
  void reconnect(std::size_t shard, control::RdmaChannelConfig config);

  /// Register every Stats field plus an outstanding-atomics gauge under
  /// `<prefix>/...`, and delegate per-shard channel + health metrics to
  /// `<prefix>/shard<i>/...`. Either pointer may be null.
  void attach_telemetry(telemetry::MetricsRegistry* registry,
                        telemetry::OpTracer* tracer,
                        const std::string& prefix);

 private:
  void on_ingress(switchsim::PipelineContext& ctx);
  void handle_response(std::size_t shard, const roce::RoceMessage& msg);
  void record(std::uint64_t index);
  void issue(std::uint64_t index, std::uint64_t add);
  void issue_from_accumulators();
  void on_timeout();
  void on_health_change(std::size_t shard, ChannelSet::Health health);
  void reclaim_shard(std::size_t shard);
  /// Repost a shard's held window in PSN order, from `from` on (the
  /// whole window when nullopt).
  void replay_window(std::size_t shard,
                     std::optional<roce::Psn> from = std::nullopt);
  void make_eligible(std::uint64_t index);

  [[nodiscard]] std::size_t shard_of(std::uint64_t index) const {
    return channels_.home_shard(index);
  }
  [[nodiscard]] std::uint64_t counter_va(std::uint64_t index) const {
    const std::uint64_t slot = index / channels_.size();
    return channels_.at(shard_of(index)).config().base_va + slot * 8;
  }

  switchsim::ProgrammableSwitch* switch_;
  ChannelSet channels_;
  Config config_;
  std::uint64_t n_counters_ = 0;  // total across shards

  /// Local accumulators (index -> pending count); indices whose count
  /// reached the combining window queue per home shard in eligible_
  /// awaiting a free outstanding slot on a healthy shard.
  std::unordered_map<std::uint64_t, std::uint64_t> accumulators_;
  /// Running sum over accumulators_, maintained at every mutation:
  /// unflushed() is a telemetry gauge, sampled every recorder tick, and
  /// walking the map there is O(live flows) per sample.
  std::uint64_t unflushed_total_ = 0;
  std::vector<std::deque<std::uint64_t>> eligible_;  // per shard
  std::unordered_set<std::uint64_t> eligible_set_;

  /// One F&A in flight: the counts it carries, for re-issue or replay.
  struct PendingAdd {
    std::uint64_t index = 0;
    std::uint64_t add = 0;
  };
  InflightTable<PendingAdd> inflight_;
  /// Per-shard: a healthy shard's ACK stream must not mask a silent one,
  /// so replay rounds and timeout observations are gated per shard.
  std::vector<sim::Time> last_progress_;
  sim::Time last_goback_ = -sim::kSecond;  // NAK-repost rate limiter

  Stats stats_;
};

}  // namespace xmem::core
