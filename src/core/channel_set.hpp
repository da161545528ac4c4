// ChannelSet: the sharding layer between a primitive and its memory
// servers. It owns one RdmaChannel per server and adds the two things a
// multi-server deployment needs on top of raw channels:
//
//   Routing.  Every operation carries a stable 64-bit key (the lookup
//   table's entry index, the state store's counter index, the packet
//   buffer's ring slot). Key k's *home shard* is k % N, forever — the
//   placement a control plane used when it populated the remote regions.
//   Failover never rehashes: a down shard is *excluded*, not rebalanced,
//   so surviving shards keep serving exactly the keys they always owned
//   and a recovered shard's data is still where the router expects it.
//
//   Health.  Each shard runs a tiny state machine (kUp <-> kDown) driven
//   by the owning primitive's observations: consecutive response
//   timeouts or NAKs past a threshold mark the shard down; any response
//   from it marks it up. While a shard is down the set probes it with
//   periodic one-slot READs so recovery is detected even though the
//   router sends it no real traffic. The primitive reacts to route()
//   returning nullopt with its own degraded mode (lookup table: local
//   miss; state store: local accumulation; packet buffer: drop-tail on
//   the dead stripe).
//
// All of this is register-and-timer machinery a real switch control
// plane could drive; the data-plane part of routing is one modulo.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/dedup_window.hpp"
#include "core/primitive.hpp"
#include "core/rdma_channel.hpp"
#include "switchsim/switch.hpp"
#include "telemetry/flight_recorder.hpp"

namespace xmem::core {

class ChannelSet {
 public:
  enum class Health : std::uint8_t { kUp, kDown };

  struct Config {
    /// Consecutive timeouts on one shard before it is marked down.
    int down_after_timeouts = 3;
    /// Consecutive NAKs before down (responder reachable but broken).
    int down_after_naks = 8;
    /// While down, probe the shard with a small READ at this interval;
    /// the probe's response flips it back up. 0 disables probing
    /// (recovery then needs out-of-band note_ok()).
    sim::Time probe_interval = sim::milliseconds(1);
    /// Bytes fetched by each probe READ (from the region base).
    std::uint32_t probe_bytes = 8;
    /// Unanswered probes to a dead server accumulate in a tracking set;
    /// past this size the set is cleared (an extremely late response
    /// then reads as stale instead of as a probe — the next probe
    /// recovers). Chaos plans shrink this to exercise the cap.
    std::size_t max_tracked_probe_psns = 1024;
  };

  struct ShardStats {
    std::uint64_t ops_routed = 0;        // route() hits while up
    std::uint64_t routed_while_down = 0; // route() refusals
    std::uint64_t timeouts = 0;
    std::uint64_t naks = 0;
    std::uint64_t down_transitions = 0;
    std::uint64_t up_transitions = 0;
    std::uint64_t probes_sent = 0;
  };

  /// Invoked after every health transition (state already updated), so
  /// the owning primitive can drain deferred work on kUp or reclaim
  /// in-flight state on kDown.
  using HealthFn = std::function<void(std::size_t shard, Health health)>;

  /// One channel per config, in order; shard i talks to configs[i].
  /// Throws std::invalid_argument on an empty list or a non-positive
  /// health threshold.
  ChannelSet(switchsim::ProgrammableSwitch& sw,
             std::vector<control::RdmaChannelConfig> configs, Config config);
  ChannelSet(switchsim::ProgrammableSwitch& sw,
             std::vector<control::RdmaChannelConfig> configs);

  [[nodiscard]] std::size_t size() const { return shards_.size(); }
  [[nodiscard]] RdmaChannel& at(std::size_t shard) {
    return *shards_[shard].channel;
  }
  [[nodiscard]] const RdmaChannel& at(std::size_t shard) const {
    return *shards_[shard].channel;
  }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Stable placement: key's home shard, independent of health.
  [[nodiscard]] std::size_t home_shard(std::uint64_t key) const {
    return static_cast<std::size_t>(key % shards_.size());
  }

  [[nodiscard]] Health health(std::size_t shard) const {
    return shards_[shard].health;
  }
  /// Monotonic reconnect generation for `shard`: bumped every time the
  /// control plane re-points the channel at a rebuilt server. Cached
  /// state filled under an older epoch may be stale (the server's
  /// memory was repopulated) and should be refreshed, not served.
  [[nodiscard]] std::uint32_t epoch(std::size_t shard) const {
    return shards_[shard].epoch;
  }
  [[nodiscard]] bool is_up(std::size_t shard) const {
    return shards_[shard].health == Health::kUp;
  }
  [[nodiscard]] std::size_t up_count() const;

  /// Route an operation: the home shard when it is up, nullopt when it
  /// is down (the caller degrades). Counts into ShardStats.
  [[nodiscard]] std::optional<std::size_t> route(std::uint64_t key);

  /// Fixed-size slots each shard's region holds, for a primitive that
  /// lays `slot_bytes` slots over the regions. Throws
  /// std::invalid_argument unless the regions are equally sized, a slot
  /// fits one path MTU (one READ response segment) and every shard holds
  /// at least one slot.
  [[nodiscard]] std::size_t slots_per_shard(std::size_t slot_bytes) const;

  /// Which shard owns this response, if any (per-channel QPN demux).
  [[nodiscard]] std::optional<std::size_t> owner_of(
      const roce::RoceMessage& msg) const;

  /// The RoCE ingress demux every primitive's stage starts with. Returns
  /// false for non-RoCE packets (the stage goes on with them). A RoCE
  /// response addressed to one of this set's channels is consumed: CNPs
  /// go to the shard's rate machine, probe responses to the health
  /// machine, and everything else to on_response(shard, msg). RoCE for
  /// anyone else is left alone.
  template <class Fn>
  bool intercept(switchsim::PipelineContext& ctx, Fn&& on_response) {
    const auto msg = roce_view(ctx);
    if (!msg) return false;
    if (const auto shard = owner_of(*msg)) {
      if (!maybe_cnp(*shard, *msg) && !maybe_probe_response(*shard, *msg)) {
        on_response(*shard, *msg);
      }
      ctx.consume();
    }
    return true;
  }

  /// --- Health observations (reported by the owning primitive) --------
  void note_ok(std::size_t shard);
  void note_timeout(std::size_t shard);
  /// A NAK is still a response, so it always proves liveness (clearing
  /// the timeout streak, reviving a down shard). Only syndromes that
  /// indicate a broken responder (remote access/op errors) count toward
  /// down_after_naks; sequence errors are ordinary go-back-N recovery on
  /// a lossy link and invalid-request NAKs are expired-replay-cache
  /// artifacts.
  void note_nak(std::size_t shard, roce::AckSyndrome syndrome);
  /// note_nak() once per NAK frame: the network may deliver a NAK twice,
  /// and a NAK has no in-flight entry whose removal would make the second
  /// delivery a no-op. Returns false (and observes nothing) for a
  /// duplicate. `msg` must carry a NAK AETH.
  [[nodiscard]] bool note_nak_once(std::size_t shard,
                                   const roce::RoceMessage& msg);

  /// True when `msg` is a CNP: forwards it to the shard's rate machine
  /// and tells the caller to consume the packet. CNPs deliberately do
  /// NOT touch shard health — congestion is a fabric condition, not a
  /// server failure, and marking a shard down for it would route real
  /// traffic away from a perfectly live responder.
  [[nodiscard]] bool maybe_cnp(std::size_t shard,
                               const roce::RoceMessage& msg);

  /// Arm DCQCN on every shard's channel (shards added by reconnect keep
  /// their controller: reconnect swaps configs, not channels).
  void enable_congestion_control(const DcqcnConfig& config);

  void set_health_fn(HealthFn fn) { health_fn_ = std::move(fn); }

  /// Record every up/down transition into `recorder` (not owned;
  /// nullptr detaches). Separate from the HealthFn slot, which the
  /// primitives claim for failover.
  void set_flight_recorder(telemetry::FlightRecorder* recorder) {
    flight_recorder_ = recorder;
  }

  /// Swap in a rebuilt channel config for `shard` (after the control
  /// plane reconnected against a restarted server). The shard's channel
  /// is re-pointed at the fresh {QPN, PSN, rkey}, pending probe PSNs
  /// and health streaks are cleared, but the shard STAYS in its current
  /// health state — the next probe (or real response) through the new
  /// channel proves the server back and flips it up.
  void reconnect(std::size_t shard, control::RdmaChannelConfig config);

  [[nodiscard]] const ShardStats& shard_stats(std::size_t shard) const {
    return shards_[shard].stats;
  }

  /// Duration of the shard's outage: the live value while it is down,
  /// the last completed outage after recovery, 0 if never down.
  [[nodiscard]] sim::Time outage(std::size_t shard) const;

  /// Per-shard channel metrics + routing/health counters under
  /// `<prefix>/shard<i>/...` (health gauge, failover_duration gauge,
  /// transition counters), plus a set-level `<prefix>/up_shards` gauge.
  void attach_telemetry(telemetry::MetricsRegistry* registry,
                        telemetry::OpTracer* tracer,
                        const std::string& prefix);

 private:
  struct Shard {
    std::unique_ptr<RdmaChannel> channel;
    Health health = Health::kUp;
    int consecutive_timeouts = 0;
    int consecutive_naks = 0;
    sim::Time down_since = 0;
    sim::Time last_outage = 0;
    std::uint32_t epoch = 0;
    std::unordered_set<roce::Psn> probe_psns;
    ShardStats stats;
  };

  /// True when `msg` answers one of this set's health probes — the
  /// caller should consume the packet and do nothing else. Flips a down
  /// shard up.
  [[nodiscard]] bool maybe_probe_response(std::size_t shard,
                                          const roce::RoceMessage& msg);
  void mark_down(std::size_t shard);
  void mark_up(std::size_t shard);
  void schedule_probe();
  void on_probe_timer();

  switchsim::ProgrammableSwitch* switch_;
  Config config_;
  std::vector<Shard> shards_;
  HealthFn health_fn_;
  DedupWindow nak_dedup_;
  telemetry::FlightRecorder* flight_recorder_ = nullptr;
  bool probe_pending_ = false;
};

}  // namespace xmem::core
