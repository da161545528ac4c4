// The data-plane RDMA channel: the switch-side machinery every primitive
// shares. It is the paper's key idea made concrete — the switch itself
// crafts RoCEv2 request packets (adding BTH/RETH/AtomicETH headers and
// ICRC on top of original or cloned packets) and injects them toward the
// memory server's RNIC, maintaining the small amount of connection state
// (next PSN) a requester needs, entirely in data-plane registers.
//
// It is the simulator's only RC requester framing: host verbs
// (core/verbs.hpp) own a channel whose frames go to their RNIC's wire
// instead of a switch port, so PSNs and request frames have one source.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "control/channel.hpp"
#include "core/dcqcn.hpp"
#include "sim/simulator.hpp"
#include "switchsim/switch.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/op_tracer.hpp"

namespace xmem::core {

class RdmaChannel {
 public:
  struct Stats {
    std::uint64_t writes_sent = 0;
    std::uint64_t reads_sent = 0;
    std::uint64_t atomics_sent = 0;
    std::int64_t request_bytes = 0;   // frame bytes of requests injected
    std::int64_t payload_bytes = 0;   // useful payload carried by WRITEs
    std::uint64_t cnp_rx = 0;         // congestion notifications received
    std::uint64_t paced_deferrals = 0;  // requests queued behind the pacer
  };

  /// Where built frames go.
  using Sink = std::function<void(net::Packet&&)>;

  /// A switch's channel: frames leave through the DCQCN pacer to
  /// `sw.inject()` on `config.switch_port`.
  RdmaChannel(switchsim::ProgrammableSwitch& sw,
              control::RdmaChannelConfig config);
  /// A channel whose frames go through the pacer to `sink` (host verbs:
  /// the RNIC's wire). `config.switch_port` is unused.
  RdmaChannel(sim::Simulator& simulator, control::RdmaChannelConfig config,
              Sink sink);
  ~RdmaChannel();
  RdmaChannel(const RdmaChannel&) = delete;
  RdmaChannel& operator=(const RdmaChannel&) = delete;

  [[nodiscard]] const control::RdmaChannelConfig& config() const {
    return config_;
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// --- Congestion control ---------------------------------------------
  /// Arm DCQCN on this channel. Off by default: without it the channel
  /// injects at wire speed and ignores CNPs, exactly the pre-CC
  /// behaviour. CC state (rate, alpha) survives reconfigure(): a
  /// reconnect changes the endpoint, not the fabric's congestion.
  void enable_congestion_control(DcqcnConfig config);
  /// The live rate machine, or nullptr when CC is off.
  [[nodiscard]] const DcqcnRateController* rate_controller() const {
    return cc_ ? &*cc_ : nullptr;
  }
  /// A CNP addressed to this channel arrived (called by the owning
  /// primitive's demux). Counted even with CC off.
  void on_cnp();
  /// Requests currently queued behind the pacer.
  [[nodiscard]] std::size_t paced_backlog() const { return paced_.size(); }

  /// True when `msg` is a response addressed to this channel's QPN —
  /// the demux test each primitive's stage applies to ingress RoCE.
  [[nodiscard]] bool owns(const roce::RoceMessage& msg) const {
    return msg.bth.dest_qp == config_.local_qpn;
  }

  /// Craft and inject an RDMA WRITE of `payload` to remote `va`.
  /// Returns the PSN used. Multi-MTU payloads are segmented
  /// FIRST/MIDDLE/LAST exactly as an RNIC requester would. Each segment's
  /// frame is written straight from `payload`, which need not outlive
  /// the call.
  roce::Psn post_write(std::uint64_t va, roce::Gather payload,
                       bool ack_req = false);
  roce::Psn post_write(std::uint64_t va,
                       std::span<const std::uint8_t> payload,
                       bool ack_req = false) {
    return post_write(va, roce::Gather{{}, payload}, ack_req);
  }

  /// Craft and inject an RDMA READ request for [va, va+len).
  /// Returns the PSN of the request; the response's first packet carries
  /// the same PSN. Consumes ceil(len/mtu) PSNs.
  roce::Psn post_read(std::uint64_t va, std::uint32_t len);

  /// Retransmit a READ with its original PSN (reliability extensions).
  /// Does not advance the PSN register.
  void repost_read(std::uint64_t va, std::uint32_t len, roce::Psn psn);

  /// Retransmit a WRITE whole with its original PSN (reliable stores).
  /// Does not advance the PSN register.
  void repost_write(std::uint64_t va, roce::Gather payload, roce::Psn psn,
                    bool ack_req = true);
  void repost_write(std::uint64_t va, std::span<const std::uint8_t> payload,
                    roce::Psn psn, bool ack_req = true) {
    repost_write(va, roce::Gather{{}, payload}, psn, ack_req);
  }

  /// Craft and inject an atomic Fetch-and-Add of `add` at `va`.
  /// Returns the PSN used (the AtomicAck echoes it).
  roce::Psn post_fetch_add(std::uint64_t va, std::uint64_t add);

  /// Retransmit a Fetch-and-Add with its original PSN (reliability
  /// extension). Does not advance the PSN register.
  void repost_fetch_add(std::uint64_t va, std::uint64_t add, roce::Psn psn);

  /// Claim the PSNs of a WRITE of `bytes`, count it and open its span,
  /// sending nothing: send_write() sends its segments. Host verbs number a
  /// WRITE this way and send it as their window opens.
  roce::Psn begin_write(std::size_t bytes);
  /// Send segments [from, to) of the WRITE of `payload` to `va` whose
  /// first PSN is `psn` (to the last one by default). A go-back-N resend
  /// may start at any segment: a MIDDLE or LAST continues the transfer
  /// its FIRST opened at the responder. The last segment sent asks for an
  /// ACK when `ack_req`.
  void send_write(roce::Psn psn, std::uint64_t va, roce::Gather payload,
                  bool ack_req, std::uint32_t from = 0,
                  std::uint32_t to = UINT32_MAX);

  /// MTU segments a WRITE of, or a READ response to, `bytes` takes (at
  /// least one): the PSNs it occupies.
  [[nodiscard]] std::uint32_t segments(std::size_t bytes) const {
    if (bytes == 0) return 1;
    return static_cast<std::uint32_t>(
        (bytes + config_.path_mtu - 1) / config_.path_mtu);
  }

  [[nodiscard]] roce::Psn next_psn() const { return next_psn_; }

  /// Point the channel at a rebuilt remote endpoint (after
  /// ChannelController::reconnect): swaps in the new config and resets
  /// the PSN register to its initial_psn. Stats and telemetry
  /// attachments persist across the swap. Frames already queued behind
  /// the pacer were built when they were posted: they still leave, as
  /// built, for the old endpoint.
  void reconfigure(control::RdmaChannelConfig config);

  /// --- Telemetry -------------------------------------------------------
  /// Hook the channel into the telemetry layer. `registry` (nullable)
  /// gets every Stats field as a counter under `<prefix>/...`; `tracer`
  /// (nullable) records one span per posted verb on a track named
  /// `prefix`, keyed by PSN. Both must outlive the channel's use; the
  /// registry throws on a duplicate prefix.
  void attach_telemetry(telemetry::MetricsRegistry* registry,
                        telemetry::OpTracer* tracer,
                        const std::string& prefix);

  /// Close the span for `psn` — called by the owning primitive when it
  /// matches the op's ACK / response / NAK. First close wins; stale
  /// duplicates are ignored. No-op without an attached tracer.
  void trace_complete(roce::Psn psn, std::string_view status = "ok");
  /// Record a retransmission of the still-open op (reliability paths).
  void trace_retransmit(roce::Psn psn);
  /// Attach an annotation (e.g. a NAK cause that triggered a retransmit)
  /// to the open span without closing it.
  void trace_annotate(roce::Psn psn, std::string_view key,
                      std::string_view value);

 private:
  /// Advance the PSN register past `count` PSNs; returns the first.
  roce::Psn take_psns(std::uint32_t count);
  /// The one framing routine: build request `op` at `psn` with the
  /// header its opcode carries, a RETH (`len` bytes at `va`: READ, FIRST,
  /// ONLY) or an AtomicETH (Fetch-and-Add of `add` at `va`), around
  /// `payload`, whose bytes are copied into the frame here, once. Then
  /// send or pace the frame.
  void request(roce::Opcode op, roce::Psn psn, std::uint64_t va,
               std::uint32_t len, roce::Gather payload = {},
               bool ack_req = false, std::uint64_t add = 0);
  /// Hand a built frame to the sink unconditionally, charging the pacer
  /// clock when CC is in recovery.
  void send_now(net::Packet&& frame);
  void drain_paced();
  void arm_cc_timers();
  void on_alpha_tick();
  void on_rate_tick();
  void trace_begin(std::string_view verb, roce::Psn psn,
                   std::uint64_t bytes);

  sim::Simulator* sim_;
  Sink sink_;
  control::RdmaChannelConfig config_;
  roce::Psn next_psn_;  // the per-channel PSN register
  telemetry::OpTracer* tracer_ = nullptr;
  int track_ = -1;
  Stats stats_;

  /// DCQCN reaction point + token pacer. `next_send_at_` is the earliest
  /// time the next paced frame may leave; frames built sooner queue in
  /// `paced_` and drain via `drain_event_`. Timers only run while the
  /// controller is in recovery (plus alpha decay until it quiesces), so
  /// a congestion-free channel schedules no events at all.
  std::optional<DcqcnRateController> cc_;
  std::deque<net::Packet> paced_;
  sim::Time next_send_at_ = 0;
  sim::EventId drain_event_;
  sim::EventId alpha_event_;
  sim::EventId rate_event_;
};

}  // namespace xmem::core
