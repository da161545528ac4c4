// Host-side RDMA requester ("verbs") engine.
//
// This is what a server application uses to drive its own RNIC: post
// one-sided work requests, get completions. Requests are numbered and
// framed by an RdmaChannel whose frames go to the RNIC's wire, the same
// code that frames the switch's requests. What is host-specific stays
// here: the work-request queue, a bounded in-flight window, in-order
// completions, READ reassembly and go-back-N recovery on NAK or timeout.
//
// In this reproduction it provides the paper's §5 baseline: native
// server-to-server RDMA WRITE/READ throughput.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/rdma_channel.hpp"
#include "rnic/rnic.hpp"
#include "sim/simulator.hpp"

namespace xmem::core {

struct WorkCompletion {
  bool success = true;
  roce::Opcode opcode = roce::Opcode::kRdmaWriteOnly;
  std::uint64_t wr_id = 0;
  std::vector<std::uint8_t> read_data;   // filled for READ
  std::uint64_t atomic_original = 0;     // filled for Fetch-and-Add
};

using CompletionFn = std::function<void(const WorkCompletion&)>;

/// Requester half of a reliable connection, bound to one local QP.
class RcRequester {
 public:
  /// PSNs sent but not yet acknowledged, across work requests.
  static constexpr std::size_t kMaxInflightPackets = 64;
  /// Go-back-N after this long without a response...
  static constexpr sim::Time kRetransmitTimeout = sim::microseconds(100);
  /// ...and fail every queued work request after this many rounds.
  static constexpr int kMaxRetries = 7;

  RcRequester(sim::Simulator& simulator, rnic::Rnic& nic, std::uint32_t qpn);

  /// Bind to the peer's QP and to the region behind `rkey`. `initial_psn`
  /// seeds the send PSN; the peer's QP must expect the same value.
  void connect(const roce::RoceEndpoint& remote, std::uint32_t remote_qpn,
               roce::Psn initial_psn, std::uint32_t rkey);

  void post_write(std::uint64_t remote_va, std::vector<std::uint8_t> data,
                  CompletionFn on_complete, std::uint64_t wr_id = 0);
  void post_read(std::uint64_t remote_va, std::size_t len,
                 CompletionFn on_complete, std::uint64_t wr_id = 0);
  void post_fetch_add(std::uint64_t remote_va, std::uint64_t add,
                      CompletionFn on_complete, std::uint64_t wr_id = 0);

  [[nodiscard]] std::size_t pending_work_requests() const {
    return wqes_.size();
  }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmits_; }
  [[nodiscard]] std::uint32_t qpn() const { return qpn_; }
  /// The channel that numbers and frames this QP's requests: its stats,
  /// and its attach_telemetry() for op spans. nullptr before connect().
  [[nodiscard]] RdmaChannel* channel() {
    return channel_ ? &*channel_ : nullptr;
  }

 private:
  struct Wqe {
    /// kRdmaWriteOnly (any WRITE), kRdmaReadRequest or kFetchAdd: the
    /// completion's opcode.
    roce::Opcode verb = roce::Opcode::kRdmaWriteOnly;
    std::uint64_t remote_va = 0;
    std::vector<std::uint8_t> data;  // write payload
    std::uint32_t read_len = 0;
    std::uint64_t atomic_add = 0;
    CompletionFn on_complete;
    std::uint64_t wr_id = 0;
    std::uint32_t packet_count = 0;  // PSNs this WQE occupies

    // Assigned when the WQE starts transmitting.
    bool started = false;
    roce::Psn first_psn;
    std::uint32_t packets_sent = 0;
    std::vector<std::uint8_t> read_buffer;
    std::uint32_t read_segments_received = 0;
    std::uint64_t atomic_result = 0;
    bool done = false;  // completed, awaiting in-order retirement
    int retries = 0;
  };

  void post(Wqe wqe);
  void pump();
  void on_response(const roce::RoceMessage& msg);
  /// The responder answers in PSN order, so a response at or after `psn`
  /// means every request before `psn` arrived: the WRITEs among them are
  /// done. A READ or an atomic among them whose own response was lost
  /// must go out again, so this returns false at the first such one. The
  /// caller then drops the response and leaves lowest_unacked_ where it
  /// is, so the retransmit timer goes back to that request.
  bool acknowledge_before(roce::Psn psn);
  void complete_front(bool success);
  void arm_timer();
  void on_timeout();
  void go_back_n();

  /// Packets in flight = sent but not yet acknowledged, across WQEs.
  [[nodiscard]] std::size_t inflight() const;

  sim::Simulator* sim_;
  rnic::Rnic* nic_;
  std::uint32_t qpn_;

  std::optional<RdmaChannel> channel_;  // built by connect()
  roce::Psn sent_psn_;        // first PSN not yet transmitted
  roce::Psn lowest_unacked_;  // oldest PSN awaiting an ACK

  std::deque<Wqe> wqes_;  // front = oldest outstanding

  sim::EventId timer_;
  sim::Time last_progress_ = 0;
  std::uint64_t retransmits_ = 0;
};

}  // namespace xmem::core
