// Remote packet buffer primitive (§4).
//
// A ring buffer of full-frame entries in server DRAM extends one egress
// queue's capacity by ~1000x. When the watched queue builds past the
// divert threshold, every further packet bound to it is encapsulated in
// an RDMA WRITE and shipped to the ring; once the queue drains below the
// resume threshold the primitive pulls entries back with chained RDMA
// READs and re-injects the original frames — FIFO order preserved, as the
// paper requires: while the ring is non-empty, *all* new packets for the
// queue keep going through the ring.
//
// The ring may be striped round-robin over several memory servers ("a
// remote buffer located in one or multiple servers", §2.1) through a
// core::ChannelSet: global slot g lives on stripe g % K at ring position
// g / K. Striping multiplies both capacity and absorb bandwidth, which
// the 8-uplink incast of Fig. 1a needs — the diverted surplus exceeds any
// single server link. When a stripe's server dies the ring degrades to
// drop-tail on that stripe: slots striped onto it become holes (counted
// as drops) while the surviving stripes keep absorbing and draining, and
// FIFO order over the survivors is preserved.
//
// Entry layout in remote memory: [u32 frame_len][frame bytes], one entry
// per fixed-size slot.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/adaptive_rto.hpp"
#include "core/channel_set.hpp"
#include "core/inflight.hpp"
#include "switchsim/switch.hpp"

namespace xmem::core {

class PacketBufferPrimitive {
 public:
  struct Config {
    /// The egress port whose queue the primitive protects.
    int watch_port = -1;
    /// Start diverting when the watched queue exceeds this many bytes.
    std::int64_t divert_threshold_bytes = 150 * 1500;
    /// Start loading back when the queue falls to or below this.
    std::int64_t resume_threshold_bytes = 30 * 1500;
    /// Fixed remote slot size; must hold u32 + a max-size frame.
    std::size_t entry_bytes = 2048;
    /// READs kept in flight while draining (the paper's chained-READ
    /// trigger generalized to a small pipeline; depth 1 is the literal
    /// "response triggers the next request"). Applied per channel.
    int read_pipeline_depth = 8;
    /// Reliable stores: every entry WRITE requests an ACK and is
    /// retransmitted (original PSN, kept in switch SRAM) until
    /// acknowledged; a READ for a slot is gated until its WRITE is
    /// acked, and a store aimed at a down stripe is *deferred* (slot
    /// allocated immediately so global FIFO order survives; the entry
    /// posts when the stripe revives) instead of dropped. Requires
    /// gap-tolerant channels (reposts may arrive out of order). Combined
    /// with reliable_loads this is the no-loss mode the chaos harness's
    /// invariants assert.
    bool reliable_stores = false;
    /// §7 extension: recover lost READ data via re-request + reorder
    /// buffer instead of treating it as a packet drop. Across a stripe
    /// failover, reliable mode holds the drain at the dead stripe until
    /// it recovers (stored frames are preserved in its DRAM); best-effort
    /// mode punches holes and keeps draining the survivors.
    bool reliable_loads = false;
    /// Loss-recovery / scavenge timer. Must sit well above the worst-case
    /// queueing delay on the memory link: during an incast, READs wait
    /// behind the WRITE backlog on the same port, and a premature timeout
    /// in unreliable mode discards packets that were merely delayed.
    sim::Time read_timeout = sim::milliseconds(2);
    /// Adaptive recovery timer: when enabled, the scavenge/retransmit
    /// deadline tracks each stripe's measured RTT and backs off
    /// exponentially across silent rounds, replacing the fixed
    /// read_timeout — recovery reacts in RTTs on a healthy fabric and
    /// stops retransmit storms when DCQCN pacing stretches response
    /// times. Disabled keeps the fixed timer.
    AdaptiveRtoConfig adaptive_rto;
    /// When false, entries are stored but never loaded until
    /// set_load_enabled(true) — the "manually start the two steps"
    /// methodology of the paper's §5 microbenchmark.
    bool load_enabled = true;
    /// Remote-buffer-aware ECN (our §2.1 co-design): the ring hides the
    /// real backlog from the egress queue, so the switch's normal
    /// queue-depth marking never fires and end-to-end congestion control
    /// — the paper's backstop for *persistent* overload — stays blind.
    /// When > 0, packets re-injected while the ring holds more than this
    /// many entries get CE-marked (if ECT). 0 disables.
    std::int64_t ecn_mark_ring_depth = 0;
    /// Failover thresholds/probing for the channel set.
    ChannelSet::Config health;
  };

  struct Stats {
    std::uint64_t stored = 0;          // packets written to the ring
    std::uint64_t loaded = 0;          // packets read back and re-injected
    std::uint64_t ring_full_drops = 0; // remote buffer exhausted
    std::uint64_t lost_loads = 0;      // READ data lost (unreliable mode)
    std::uint64_t read_retries = 0;    // reliable-mode re-requests
    std::uint64_t write_retries = 0;   // reliable-store retransmits
    std::uint64_t deferred_stores = 0; // stores parked for a down stripe
    std::uint64_t naks = 0;
    std::uint64_t ecn_marked = 0;      // ring-depth CE marks applied
    std::uint64_t dead_stripe_drops = 0;  // drop-tail on a down stripe
    std::uint64_t duplicate_responses = 0;  // stale/duplicated deliveries
    std::int64_t max_ring_depth = 0;   // high-water mark, in entries
  };

  /// Striped over `channels` (at least one). Registers an ingress stage
  /// and a traffic-manager watcher on `sw`. Every channel's region must
  /// be writable+readable and all regions must be equally sized. Throws
  /// std::invalid_argument on an invalid channel list or config.
  PacketBufferPrimitive(switchsim::ProgrammableSwitch& sw,
                        std::vector<control::RdmaChannelConfig> channels,
                        Config config);
  /// Single-server convenience (a pool of 1).
  PacketBufferPrimitive(switchsim::ProgrammableSwitch& sw,
                        control::RdmaChannelConfig channel, Config config)
      : PacketBufferPrimitive(
            sw, std::vector<control::RdmaChannelConfig>{std::move(channel)},
            config) {}

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const RdmaChannel& channel(std::size_t i = 0) const {
    return channels_.at(i);
  }
  [[nodiscard]] const ChannelSet& channels() const { return channels_; }
  [[nodiscard]] ChannelSet& channels() { return channels_; }
  [[nodiscard]] std::size_t stripe_width() const { return channels_.size(); }
  /// The stripe's RTT estimator (meaningful only with adaptive_rto on).
  [[nodiscard]] const AdaptiveRto& rto(std::size_t stripe) const {
    return inflight_.rto(stripe);
  }
  /// Entries currently resident in remote memory.
  [[nodiscard]] std::int64_t ring_depth() const {
    return static_cast<std::int64_t>(head_ - tail_);
  }
  [[nodiscard]] bool diverting() const { return diverting_; }
  /// Total slots across all stripes.
  [[nodiscard]] std::size_t ring_capacity() const { return capacity_; }

  /// True when nothing is in flight or parked anywhere: the ring has
  /// fully drained, every store was acknowledged and no READ or
  /// deferred entry is pending.
  [[nodiscard]] bool quiescent() const {
    return tail_ == head_ && inflight_.size() == 0 &&
           deferred_stores_.empty();
  }

  /// §5 microbenchmark control: gate the load path.
  void set_load_enabled(bool enabled);
  [[nodiscard]] bool load_enabled() const { return config_.load_enabled; }

  /// Register every Stats field plus live ring-depth/diverting gauges
  /// under `<prefix>/...`, and delegate per-stripe channel + health
  /// metrics to `<prefix>/shard<i>/...`. Either pointer may be null.
  void attach_telemetry(telemetry::MetricsRegistry* registry,
                        telemetry::OpTracer* tracer,
                        const std::string& prefix);

  /// Swap in a rebuilt channel for `stripe` after its server's RNIC was
  /// restart()ed and ChannelController::reconnect produced `config`. The
  /// restarted server still holds the stripe's DRAM, so outstanding
  /// WRITEs/READs are reposted (duplicates are idempotent) rather than
  /// reclaimed.
  void reconnect(std::size_t stripe, control::RdmaChannelConfig config);

 private:
  /// One slot transfer in flight: a READ awaiting its response, or (with
  /// reliable_stores) an entry WRITE awaiting its ACK.
  struct Transfer {
    std::uint64_t slot = 0;
    bool write = false;
    std::vector<std::uint8_t> entry;  // WRITE bytes, kept for retransmission
  };
  using Inflight = InflightTable<Transfer>;

  void on_ingress(switchsim::PipelineContext& ctx);
  void on_queue_event(switchsim::QueueEvent event, int port,
                      std::int64_t depth_bytes);
  void handle_response(std::size_t channel_index,
                       const roce::RoceMessage& msg);
  void on_health_change(std::size_t shard, ChannelSet::Health health);

  void store_packet(const net::Packet& packet);
  void maybe_issue_reads();
  void drain_reorder_buffer();
  void on_timeout();
  /// Complete the transfer a response answers: READ responses complete
  /// only READs, ACKs only WRITEs. Returns its slot, or nullopt (counted
  /// as a duplicate) for a stale or duplicated delivery.
  std::optional<std::uint64_t> complete(std::size_t stripe, roce::Psn psn,
                                        bool write);
  /// Retransmit `t` with its original PSN.
  void repost(std::size_t stripe, Inflight::Entry& t);
  /// True when a READ of `slot` is in flight.
  [[nodiscard]] bool read_in_flight(std::uint64_t slot);

  [[nodiscard]] std::size_t channel_of(std::uint64_t slot) const {
    return static_cast<std::size_t>(slot % channels_.size());
  }
  [[nodiscard]] std::uint64_t slot_va(std::uint64_t slot) const {
    const std::uint64_t within = slot / channels_.size();
    const auto& cfg = channels_.at(channel_of(slot)).config();
    return cfg.base_va + (within % per_channel_slots_) * config_.entry_bytes;
  }

  switchsim::ProgrammableSwitch* switch_;
  ChannelSet channels_;
  Config config_;

  // Ring state (all representable as P4 registers).
  std::size_t capacity_ = 0;           // total slots across stripes
  std::size_t per_channel_slots_ = 0;  // slots per stripe
  std::uint64_t head_ = 0;             // next slot to write (monotonic)
  std::uint64_t tail_ = 0;             // next slot to re-inject (monotonic)
  bool diverting_ = false;

  std::uint64_t next_read_slot_ = 0;  // next slot to request (monotonic)

  /// Transfers in flight, per stripe, and the READs among them.
  Inflight inflight_;
  std::vector<int> reads_per_stripe_;

  /// Slots whose entry WRITE is not yet acknowledged (or still
  /// deferred); READs for them are gated.
  std::unordered_set<std::uint64_t> unacked_slots_;
  /// slot -> entry bytes parked while the slot's stripe is down.
  std::map<std::uint64_t, std::vector<std::uint8_t>> deferred_stores_;
  /// slot -> recovered frame; an empty Packet is a *hole* (that slot's
  /// data is known lost — dead stripe or unrecovered READ) that the
  /// drain skips over.
  std::map<std::uint64_t, net::Packet> reorder_;
  sim::Time last_read_progress_ = 0;

  Stats stats_;
};

}  // namespace xmem::core
