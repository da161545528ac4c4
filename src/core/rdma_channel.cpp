#include "core/rdma_channel.hpp"

#include <algorithm>
#include <cassert>

namespace xmem::core {

using roce::Opcode;
using roce::RoceMessage;

RdmaChannel::RdmaChannel(switchsim::ProgrammableSwitch& sw,
                         control::RdmaChannelConfig config)
    : RdmaChannel(sw.simulator(), std::move(config),
                  [this, &sw](net::Packet&& frame) {
                    sw.inject(std::move(frame), config_.switch_port);
                  }) {
  assert(config_.switch_port >= 0 && "channel has no egress port");
}

RdmaChannel::RdmaChannel(sim::Simulator& simulator,
                         control::RdmaChannelConfig config, Sink sink)
    : sim_(&simulator), sink_(std::move(sink)), config_(std::move(config)),
      next_psn_(config_.initial_psn) {}

RdmaChannel::~RdmaChannel() {
  drain_event_.cancel();
  alpha_event_.cancel();
  rate_event_.cancel();
}

void RdmaChannel::enable_congestion_control(DcqcnConfig config) {
  cc_.emplace(config);
}

void RdmaChannel::on_cnp() {
  ++stats_.cnp_rx;
  if (!cc_) return;
  const bool was_recovering = cc_->in_recovery();
  cc_->on_cnp();
  if (!was_recovering) {
    // First CNP of this congestion episode: pacing starts from now, not
    // from a stale clock left over by the previous episode.
    next_send_at_ = std::max(next_send_at_, sim_->now());
    arm_cc_timers();
  }
}

void RdmaChannel::arm_cc_timers() {
  if (!alpha_event_.pending()) {
    alpha_event_ = sim_->schedule_in(DcqcnRateController::kAlphaTimer,
                                     [this] { on_alpha_tick(); });
  }
  if (!rate_event_.pending()) {
    rate_event_ = sim_->schedule_in(DcqcnRateController::kRateTimer,
                                    [this] { on_rate_tick(); });
  }
}

void RdmaChannel::on_alpha_tick() {
  cc_->on_alpha_timer();
  // Keep decaying after recovery ends so the next episode starts from a
  // faded congestion estimate; quiesce once alpha is negligible.
  if (cc_->in_recovery() || cc_->alpha() > 1e-3) {
    alpha_event_ = sim_->schedule_in(DcqcnRateController::kAlphaTimer,
                                     [this] { on_alpha_tick(); });
  }
}

void RdmaChannel::on_rate_tick() {
  cc_->on_rate_timer();
  if (cc_->in_recovery()) {
    rate_event_ = sim_->schedule_in(DcqcnRateController::kRateTimer,
                                    [this] { on_rate_tick(); });
  }
  if (!paced_.empty() && !drain_event_.pending()) {
    // A rate step may have pulled next_send_at_ into the past relative
    // to the queued backlog's old schedule; re-arm the drain.
    drain_event_ = sim_->schedule_at(std::max(next_send_at_, sim_->now()),
                                     [this] { drain_paced(); });
  }
}

void RdmaChannel::attach_telemetry(telemetry::MetricsRegistry* registry,
                                   telemetry::OpTracer* tracer,
                                   const std::string& prefix) {
  if (registry != nullptr) {
    registry->register_counter(prefix + "/writes_sent",
                               &stats_.writes_sent, "ops");
    registry->register_counter(prefix + "/reads_sent",
                               &stats_.reads_sent, "ops");
    registry->register_counter(prefix + "/atomics_sent",
                               &stats_.atomics_sent, "ops");
    registry->register_counter(
        prefix + "/request_bytes", [this]() { return stats_.request_bytes; },
        "bytes");
    registry->register_counter(
        prefix + "/payload_bytes", [this]() { return stats_.payload_bytes; },
        "bytes");
    registry->register_counter(prefix + "/cnp_rx", &stats_.cnp_rx, "ops");
    registry->register_counter(prefix + "/paced_deferrals",
                               &stats_.paced_deferrals, "ops");
    // Allowed DCQCN rate; 0 means uncapped (congestion control is off).
    registry->register_gauge(
        prefix + "/current_rate_gbps",
        [this]() { return cc_ ? sim::to_gbps(cc_->rate()) : 0.0; }, "Gbps");
  }
  if (tracer != nullptr) {
    tracer_ = tracer;
    track_ = tracer_->track(prefix);
  }
}

void RdmaChannel::trace_begin(std::string_view verb, roce::Psn psn,
                              std::uint64_t bytes) {
  if (tracer_ != nullptr) tracer_->begin_op(track_, verb, psn, bytes);
}

void RdmaChannel::trace_complete(roce::Psn psn, std::string_view status) {
  if (tracer_ != nullptr) tracer_->end_op(track_, psn, status);
}

void RdmaChannel::trace_retransmit(roce::Psn psn) {
  if (tracer_ != nullptr) tracer_->note_retransmit(track_, psn);
}

void RdmaChannel::trace_annotate(roce::Psn psn, std::string_view key,
                                 std::string_view value) {
  if (tracer_ != nullptr) tracer_->annotate(track_, psn, key, value);
}

roce::Psn RdmaChannel::take_psns(std::uint32_t count) {
  const roce::Psn first = next_psn_;
  next_psn_ = roce::psn_add(first, count);
  return first;
}

void RdmaChannel::request(Opcode op, roce::Psn psn, std::uint64_t va,
                          std::uint32_t len, roce::Gather payload,
                          bool ack_req, std::uint64_t add) {
  RoceMessage msg;
  msg.bth.opcode = op;
  msg.bth.dest_qp = config_.remote_qpn;
  msg.bth.psn = psn;
  msg.bth.ack_req = ack_req;
  if (op == Opcode::kFetchAdd) {
    msg.atomic_eth = roce::AtomicEth{va, config_.rkey, add};
  } else if (op == Opcode::kRdmaReadRequest || op == Opcode::kRdmaWriteOnly ||
             op == Opcode::kRdmaWriteFirst) {
    msg.reth = roce::Reth{va, config_.rkey, len};
  }
  net::Packet frame =
      roce::build_roce_packet(config_.local, config_.remote, msg, payload);
  if (!cc_ || !cc_->in_recovery()) {
    // Uncongested (or CC off): wire-speed injection, byte-identical to
    // the pre-pacing code path.
    send_now(std::move(frame));
    return;
  }
  const sim::Time now = sim_->now();
  if (paced_.empty() && now >= next_send_at_) {
    send_now(std::move(frame));
    return;
  }
  ++stats_.paced_deferrals;
  paced_.push_back(std::move(frame));
  if (!drain_event_.pending()) {
    drain_event_ = sim_->schedule_at(std::max(next_send_at_, now),
                                     [this] { drain_paced(); });
  }
}

void RdmaChannel::send_now(net::Packet&& frame) {
  const auto bytes = static_cast<std::int64_t>(frame.size());
  stats_.request_bytes += bytes;
  if (cc_ && cc_->in_recovery()) {
    // Charge the pacer: the next frame may leave once this one has
    // serialized at the current allowed rate.
    next_send_at_ = std::max(next_send_at_, sim_->now()) +
                    sim::transmission_time(bytes, cc_->rate());
  }
  sink_(std::move(frame));
  if (cc_) cc_->on_bytes_sent(static_cast<std::uint64_t>(bytes));
}

void RdmaChannel::drain_paced() {
  const sim::Time now = sim_->now();
  // Send every frame whose pace slot has arrived; a byte-counter round
  // inside send_now() can end recovery mid-drain, after which the rest
  // of the backlog flushes at wire speed.
  while (!paced_.empty() && (now >= next_send_at_ || !cc_->in_recovery())) {
    net::Packet frame = std::move(paced_.front());
    paced_.pop_front();
    send_now(std::move(frame));
  }
  if (!paced_.empty()) {
    drain_event_ =
        sim_->schedule_at(next_send_at_, [this] { drain_paced(); });
  }
}

roce::Psn RdmaChannel::begin_write(std::size_t bytes) {
  const roce::Psn psn = take_psns(segments(bytes));
  ++stats_.writes_sent;
  stats_.payload_bytes += static_cast<std::int64_t>(bytes);
  trace_begin("WRITE", psn, bytes);
  return psn;
}

void RdmaChannel::send_write(roce::Psn psn, std::uint64_t va,
                             roce::Gather payload, bool ack_req,
                             std::uint32_t from, std::uint32_t to) {
  const std::uint32_t count = segments(payload.size());
  to = std::min(to, count);
  const std::size_t mtu = config_.path_mtu;
  for (std::uint32_t i = from; i < to; ++i) {
    Opcode op = Opcode::kRdmaWriteMiddle;
    if (count == 1) {
      op = Opcode::kRdmaWriteOnly;
    } else if (i == 0) {
      op = Opcode::kRdmaWriteFirst;
    } else if (i + 1 == count) {
      op = Opcode::kRdmaWriteLast;
    }
    const std::size_t offset = i * mtu;
    request(op, roce::psn_add(psn, i), va,
            static_cast<std::uint32_t>(payload.size()),
            payload.sub(offset, std::min(mtu, payload.size() - offset)),
            ack_req && i + 1 == to);
  }
}

roce::Psn RdmaChannel::post_write(std::uint64_t va, roce::Gather payload,
                                  bool ack_req) {
  const roce::Psn psn = begin_write(payload.size());
  send_write(psn, va, payload, ack_req);
  // Unacknowledged WRITEs get no response: their span closes at injection
  // ("posted"), so fire-and-forget stores still appear on the timeline.
  if (!ack_req) trace_complete(psn, "posted");
  return psn;
}

void RdmaChannel::repost_write(std::uint64_t va, roce::Gather payload,
                               roce::Psn psn, bool ack_req) {
  trace_retransmit(psn);
  send_write(psn, va, payload, ack_req);
}

roce::Psn RdmaChannel::post_read(std::uint64_t va, std::uint32_t len) {
  const roce::Psn psn = take_psns(segments(len));
  ++stats_.reads_sent;
  trace_begin("READ", psn, len);
  request(Opcode::kRdmaReadRequest, psn, va, len);
  return psn;
}

void RdmaChannel::repost_read(std::uint64_t va, std::uint32_t len,
                              roce::Psn psn) {
  trace_retransmit(psn);
  request(Opcode::kRdmaReadRequest, psn, va, len);
}

roce::Psn RdmaChannel::post_fetch_add(std::uint64_t va, std::uint64_t add) {
  const roce::Psn psn = take_psns(1);
  ++stats_.atomics_sent;
  trace_begin("FETCH_ADD", psn, 8);
  request(Opcode::kFetchAdd, psn, va, 0, {}, false, add);
  return psn;
}

void RdmaChannel::repost_fetch_add(std::uint64_t va, std::uint64_t add,
                                   roce::Psn psn) {
  trace_retransmit(psn);
  request(Opcode::kFetchAdd, psn, va, 0, {}, false, add);
}

void RdmaChannel::reconfigure(control::RdmaChannelConfig config) {
  assert(config.switch_port >= 0 && "channel has no egress port");
  config_ = std::move(config);
  next_psn_ = config_.initial_psn;
}

}  // namespace xmem::core
