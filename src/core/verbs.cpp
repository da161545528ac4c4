#include "core/verbs.hpp"

#include <algorithm>
#include <cassert>

namespace xmem::core {

using roce::Opcode;
using roce::RoceMessage;

RcRequester::RcRequester(sim::Simulator& simulator, rnic::Rnic& nic,
                         std::uint32_t qpn)
    : sim_(&simulator), nic_(&nic), qpn_(qpn) {
  nic_->set_response_handler(
      qpn_, [this](const RoceMessage& msg) { on_response(msg); });
}

void RcRequester::connect(const roce::RoceEndpoint& remote,
                          std::uint32_t remote_qpn, roce::Psn initial_psn,
                          std::uint32_t rkey) {
  channel_.emplace(*sim_,
                   control::RdmaChannelConfig{
                       .local = nic_->endpoint(),
                       .remote = remote,
                       .local_qpn = qpn_,
                       .remote_qpn = remote_qpn,
                       .rkey = rkey,
                       .initial_psn = initial_psn,
                       .path_mtu = nic_->profile().path_mtu},
                   [nic = nic_](net::Packet&& frame) {
                     nic->transmit(std::move(frame));
                   });
  lowest_unacked_ = initial_psn;
  sent_psn_ = initial_psn;
  last_progress_ = sim_->now();
}

std::size_t RcRequester::inflight() const {
  return static_cast<std::size_t>(
      std::max<std::int32_t>(0, roce::psn_distance(lowest_unacked_, sent_psn_)));
}

void RcRequester::post_write(std::uint64_t remote_va,
                             std::vector<std::uint8_t> data,
                             CompletionFn on_complete, std::uint64_t wr_id) {
  post({.verb = Opcode::kRdmaWriteOnly,
        .remote_va = remote_va,
        .data = std::move(data),
        .on_complete = std::move(on_complete),
        .wr_id = wr_id});
}

void RcRequester::post_read(std::uint64_t remote_va, std::size_t len,
                            CompletionFn on_complete, std::uint64_t wr_id) {
  post({.verb = Opcode::kRdmaReadRequest,
        .remote_va = remote_va,
        .read_len = static_cast<std::uint32_t>(len),
        .on_complete = std::move(on_complete),
        .wr_id = wr_id});
}

void RcRequester::post_fetch_add(std::uint64_t remote_va, std::uint64_t add,
                                 CompletionFn on_complete,
                                 std::uint64_t wr_id) {
  post({.verb = Opcode::kFetchAdd,
        .remote_va = remote_va,
        .atomic_add = add,
        .on_complete = std::move(on_complete),
        .wr_id = wr_id});
}

void RcRequester::post(Wqe wqe) {
  assert(channel_ && "RcRequester: post before connect");
  // A READ occupies its response's PSNs, a WRITE its segments', an
  // atomic (no data) one.
  wqe.packet_count = channel_->segments(
      wqe.verb == Opcode::kRdmaReadRequest ? wqe.read_len : wqe.data.size());
  wqes_.push_back(std::move(wqe));
  pump();
}

void RcRequester::pump() {
  bool sent_any = false;
  for (Wqe& wqe : wqes_) {
    if (inflight() >= kMaxInflightPackets) break;
    // A WRITE sends each of its segments; a READ or an atomic sends one
    // request, though a READ occupies its whole response range.
    const bool write = wqe.verb == Opcode::kRdmaWriteOnly;
    const std::uint32_t frames = write ? wqe.packet_count : 1;
    if (wqe.packets_sent == frames) continue;
    sent_any = true;
    if (write) {
      if (!wqe.started) {
        wqe.first_psn = channel_->begin_write(wqe.data.size());
      }
      // The next segment leaves (the window admitted this WQE), and each
      // later segment i while the PSNs from lowest_unacked_ up to its own
      // number fewer than kMaxInflightPackets.
      const std::int64_t fits =
          static_cast<std::int64_t>(kMaxInflightPackets) -
          roce::psn_distance(lowest_unacked_, wqe.first_psn);
      const auto to = static_cast<std::uint32_t>(
          std::clamp<std::int64_t>(fits, wqe.packets_sent + 1, frames));
      // The message's last segment asks for an ACK. So does one that
      // fills the window while nothing older is unacknowledged: no other
      // response would reopen it.
      const bool ack_req =
          to == frames ||
          roce::psn_distance(lowest_unacked_, wqe.first_psn) <= 0;
      channel_->send_write(wqe.first_psn, wqe.remote_va, {{}, wqe.data},
                           ack_req, wqe.packets_sent, to);
      wqe.packets_sent = to;
    } else if (wqe.verb == Opcode::kRdmaReadRequest) {
      if (wqe.started) {
        channel_->repost_read(wqe.remote_va, wqe.read_len, wqe.first_psn);
      } else {
        wqe.first_psn = channel_->post_read(wqe.remote_va, wqe.read_len);
      }
      wqe.packets_sent = 1;
    } else {
      if (wqe.started) {
        channel_->repost_fetch_add(wqe.remote_va, wqe.atomic_add,
                                   wqe.first_psn);
      } else {
        wqe.first_psn =
            channel_->post_fetch_add(wqe.remote_va, wqe.atomic_add);
      }
      wqe.packets_sent = 1;
    }
    wqe.started = true;
    sent_psn_ = roce::psn_add(wqe.first_psn,
                              write ? wqe.packets_sent : wqe.packet_count);
    if (wqe.packets_sent < frames) break;  // window full mid-message
  }
  if (sent_any) arm_timer();
}

void RcRequester::on_response(const RoceMessage& msg) {
  last_progress_ = sim_->now();
  const Opcode op = msg.opcode();

  if (op == Opcode::kAcknowledge || op == Opcode::kAtomicAcknowledge) {
    assert(msg.aeth.has_value());
    if (msg.aeth->is_nak()) {
      // Go back to what the responder expects next.
      lowest_unacked_ = msg.bth.psn;
      ++retransmits_;
      go_back_n();
      return;
    }
    if (op == Opcode::kAtomicAcknowledge) {
      assert(msg.atomic_ack.has_value());
      for (auto& wqe : wqes_) {
        if (wqe.started && !wqe.done && wqe.verb == Opcode::kFetchAdd &&
            wqe.first_psn == msg.bth.psn) {
          wqe.atomic_result = msg.atomic_ack->original_value;
          wqe.done = true;
          break;
        }
      }
    }
    const roce::Psn acked_through = roce::psn_add(msg.bth.psn, 1);
    if (acknowledge_before(acked_through) &&
        roce::psn_distance(lowest_unacked_, acked_through) > 0) {
      lowest_unacked_ = acked_through;
    }
  } else if (roce::is_read_response(op)) {
    // Find the READ this segment belongs to.
    for (auto& wqe : wqes_) {
      if (!wqe.started || wqe.verb != Opcode::kRdmaReadRequest || wqe.done) {
        continue;
      }
      const std::int32_t off = roce::psn_distance(wqe.first_psn, msg.bth.psn);
      if (off < 0 || off >= static_cast<std::int32_t>(wqe.packet_count)) {
        continue;
      }
      if (!acknowledge_before(wqe.first_psn)) break;
      if (static_cast<std::uint32_t>(off) != wqe.read_segments_received) {
        // Out-of-order segment: a response was lost. Reissue the READ.
        ++retransmits_;
        wqe.packets_sent = 0;
        wqe.read_segments_received = 0;
        wqe.read_buffer.clear();
        sent_psn_ = lowest_unacked_;
        pump();
        return;
      }
      wqe.read_buffer.insert(wqe.read_buffer.end(), msg.payload.begin(),
                             msg.payload.end());
      ++wqe.read_segments_received;
      if (wqe.read_segments_received == wqe.packet_count) {
        wqe.done = true;
        const roce::Psn after =
            roce::psn_add(wqe.first_psn, wqe.packet_count);
        if (roce::psn_distance(lowest_unacked_, after) > 0) {
          lowest_unacked_ = after;
        }
      }
      break;
    }
  }

  // Retire completed WQEs in order.
  while (!wqes_.empty() && wqes_.front().done) {
    complete_front(true);
  }
  pump();
}

bool RcRequester::acknowledge_before(roce::Psn psn) {
  for (auto& wqe : wqes_) {
    if (!wqe.started) break;
    const roce::Psn last_psn =
        roce::psn_add(wqe.first_psn, wqe.packet_count - 1);
    if (roce::psn_distance(last_psn, psn) <= 0) break;
    if (wqe.done) continue;
    if (wqe.verb != Opcode::kRdmaWriteOnly) return false;
    wqe.done = true;
  }
  return true;
}

void RcRequester::complete_front(bool success) {
  Wqe wqe = std::move(wqes_.front());
  wqes_.pop_front();
  if (wqe.started) {
    channel_->trace_complete(wqe.first_psn, success ? "ok" : "failed");
  }
  if (wqe.on_complete) {
    WorkCompletion wc;
    wc.success = success;
    wc.opcode = wqe.verb;
    wc.wr_id = wqe.wr_id;
    wc.read_data = std::move(wqe.read_buffer);
    wc.atomic_original = wqe.atomic_result;
    wqe.on_complete(wc);
  }
}

void RcRequester::arm_timer() {
  if (timer_.pending()) return;
  timer_ = sim_->schedule_in(kRetransmitTimeout, [this]() { on_timeout(); });
}

void RcRequester::on_timeout() {
  if (wqes_.empty() || inflight() == 0) return;  // nothing outstanding
  if (sim_->now() - last_progress_ < kRetransmitTimeout) {
    arm_timer();
    return;
  }
  Wqe& front = wqes_.front();
  if (++front.retries > kMaxRetries) {
    // Give up on the whole queue: the connection is broken.
    while (!wqes_.empty()) complete_front(false);
    return;
  }
  ++retransmits_;
  go_back_n();
  arm_timer();
}

void RcRequester::go_back_n() {
  // Rewind transmission progress to the lowest unacknowledged PSN and
  // replay from there: a WRITE from the segment at that PSN, READs and
  // atomics whole.
  sent_psn_ = lowest_unacked_;
  for (auto& wqe : wqes_) {
    if (!wqe.started || wqe.done) continue;
    if (wqe.verb == Opcode::kRdmaWriteOnly) {
      const std::int32_t progress =
          roce::psn_distance(wqe.first_psn, lowest_unacked_);
      wqe.packets_sent = static_cast<std::uint32_t>(std::clamp<std::int32_t>(
          progress, 0, static_cast<std::int32_t>(wqe.packet_count)));
      channel_->trace_retransmit(wqe.first_psn);
    } else {
      wqe.packets_sent = 0;
      wqe.read_segments_received = 0;
      wqe.read_buffer.clear();
    }
  }
  pump();
}

}  // namespace xmem::core
