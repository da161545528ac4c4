#include "rnic/rnic.hpp"

#include <algorithm>
#include <cassert>

namespace xmem::rnic {

using roce::AckSyndrome;
using roce::Opcode;
using roce::RoceMessage;

namespace {

/// The InfiniBand length rule for a WRITE_ONLY or WRITE_FIRST: an ONLY
/// carries exactly its RETH's DMA length, a FIRST at most that much
/// (MIDDLE and LAST are then held to what remains). A WRITE that breaks
/// it is NAKed as an invalid request and writes nothing: a longer payload
/// would land past the range the responder validated.
bool payload_fits_reth(const RoceMessage& msg) {
  const std::size_t len = msg.payload.size();
  return msg.opcode() == Opcode::kRdmaWriteOnly ? len == msg.reth->dma_len
                                                : len <= msg.reth->dma_len;
}

}  // namespace

Rnic::Rnic(sim::Simulator& simulator, roce::RoceEndpoint self,
           NicProfile profile, TransmitFn transmit)
    : sim_(&simulator),
      self_(self),
      profile_(profile),
      transmit_(std::move(transmit)) {
  assert(transmit_ && "Rnic needs a transmit function");
}

QueuePair& Rnic::create_qp() {
  auto qp = std::make_unique<QueuePair>();
  qp->qpn = next_qpn_++;
  qp->path_mtu = profile_.path_mtu;
  QueuePair& ref = *qp;
  qps_.emplace(ref.qpn, std::move(qp));
  return ref;
}

void Rnic::connect_qp(std::uint32_t qpn, const roce::RoceEndpoint& remote,
                      std::uint32_t remote_qpn, roce::Psn expected_psn) {
  QueuePair* qp = find_qp(qpn);
  assert(qp != nullptr && "connect_qp: unknown QPN");
  qp->remote = remote;
  qp->remote_qpn = remote_qpn;
  qp->epsn = expected_psn;
  qp->state = QpState::kReadyToReceive;
}

QueuePair* Rnic::find_qp(std::uint32_t qpn) {
  auto it = qps_.find(qpn);
  return it == qps_.end() ? nullptr : it->second.get();
}

void Rnic::set_response_handler(std::uint32_t qpn, ResponseHandler handler) {
  response_handlers_[qpn] = std::move(handler);
}

void Rnic::set_alive(bool alive) {
  alive_ = alive;
  if (!alive_) {
    // Queued-but-unserved requests die with the NIC.
    rx_queue_.clear();
  }
}

void Rnic::restart() {
  rx_queue_.clear();
  qps_.clear();
  response_handlers_.clear();
  memory_.invalidate_all();
  alive_ = true;
  ++epoch_;
  ++stats_.restarts;
}

bool Rnic::handle_frame(const net::Packet& frame) {
  // Cheap dispatch: only frames that structurally look like RoCE belong
  // to the NIC; everything else goes up the host stack.
  const auto bytes = frame.bytes();
  if (bytes.size() < net::kEthernetHeaderBytes) return false;
  const std::uint16_t ether_type =
      static_cast<std::uint16_t>((bytes[12] << 8) | bytes[13]);
  const bool v1 = ether_type ==
                  static_cast<std::uint16_t>(net::EtherType::kRoceV1);
  bool v2 = false;
  if (ether_type == static_cast<std::uint16_t>(net::EtherType::kIpv4) &&
      bytes.size() >=
          net::kEthernetHeaderBytes + net::kIpv4HeaderBytes + 4) {
    const std::size_t l4 = net::kEthernetHeaderBytes + net::kIpv4HeaderBytes;
    const std::uint16_t dst_port =
        static_cast<std::uint16_t>((bytes[l4 + 2] << 8) | bytes[l4 + 3]);
    v2 = bytes[net::kEthernetHeaderBytes + 9] ==
             static_cast<std::uint8_t>(net::IpProto::kUdp) &&
         dst_port == net::kRoceV2Port;
  }
  if (!v1 && !v2) return false;

  if (!alive_) {
    ++stats_.dead_dropped;
    return true;  // a dead NIC still sinks its RoCE traffic
  }

  auto msg = roce::parse_roce_packet(frame);
  if (!msg) {
    ++stats_.corrupt_dropped;
    return true;  // it was RoCE, just damaged: the NIC eats it
  }

  if (roce::is_response(msg->opcode())) {
    auto it = response_handlers_.find(msg->bth.dest_qp);
    if (it != response_handlers_.end()) {
      ++stats_.responses_dispatched;
      it->second(*msg);
    } else {
      ++stats_.unknown_qp_dropped;
    }
    return true;
  }

  ++stats_.requests_received;
  // DCQCN responder side: react to fabric CE marks at arrival (before
  // RX queueing, which would only slow the congestion control loop).
  if (msg->ecn == net::Ecn::kCe) {
    ++stats_.ce_marked_rx;
    if (QueuePair* qp = find_qp(msg->bth.dest_qp);
        qp != nullptr && qp->state == QpState::kReadyToReceive) {
      ++qp->ce_marked_rx;
      note_ce_marked(*qp);
    }
  }
  if (rx_queue_.size() >= profile_.rx_queue_depth) {
    ++stats_.requests_dropped_overflow;
    return true;
  }
  rx_queue_.push_back(RxItem{std::move(*msg), sim_->now()});
  pump();
  return true;
}

void Rnic::note_ce_marked(QueuePair& qp) {
  const sim::Time now = sim_->now();
  if (qp.last_cnp_at >= 0 && profile_.cnp_min_interval > 0 &&
      now - qp.last_cnp_at < profile_.cnp_min_interval) {
    return;  // this mark is absorbed into the CNP already on the wire
  }
  qp.last_cnp_at = now;
  RoceMessage cnp;
  cnp.bth.opcode = Opcode::kCnp;
  cnp.bth.dest_qp = qp.remote_qpn;
  cnp.bth.psn = roce::Psn(0);  // CNPs sit outside the PSN sequence
  cnp.cnp = roce::CnpEth{};
  cnp.ecn = net::Ecn::kNotEct;  // notifications are never themselves marked
  ++qp.cnps_sent;
  ++stats_.cnps_sent;
  int_ingress_ = now;  // the CNP's NIC residency is instantaneous
  transmit_response(roce::build_roce_packet(self_, qp.remote, cnp));
}

void Rnic::pump() {
  if (serving_ || rx_queue_.empty()) return;
  serving_ = true;
  in_service_ = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  // The request waits in in_service_, so the event captures only `this`.
  // set_alive(false) and restart() leave it alone: execute() checks
  // liveness and the QP when the service time is up.
  auto serve = [this] {
    int_ingress_ = in_service_.arrival;
    execute(in_service_.msg);
    in_service_ = {};  // release the request's frame
    serving_ = false;
    pump();
  };
  static_assert(sim::InlineFunction::fits_inline<decltype(serve)>(),
                "every request would heap-allocate its service event");
  sim_->schedule_in(service_time(in_service_.msg), std::move(serve));
}

sim::Time Rnic::service_time(const RoceMessage& msg) const {
  const Opcode op = msg.opcode();
  sim::Time t = 0;
  std::int64_t dma_bytes = 0;
  if (roce::is_write(op)) {
    t = profile_.write_overhead;
    dma_bytes = static_cast<std::int64_t>(msg.payload.size());
  } else if (roce::is_read_request(op)) {
    t = profile_.read_overhead;
    dma_bytes = msg.reth ? msg.reth->dma_len : 0;
  } else if (roce::is_atomic(op)) {
    t = profile_.atomic_overhead;
    dma_bytes = 8;
  }
  return t + sim::transmission_time(dma_bytes, profile_.dma_bandwidth);
}

void Rnic::execute(const RoceMessage& msg) {
  if (!alive_) {
    ++stats_.dead_dropped;  // killed while this op was in service
    return;
  }
  QueuePair* qp_ptr = find_qp(msg.bth.dest_qp);
  if (qp_ptr == nullptr || qp_ptr->state != QpState::kReadyToReceive) {
    ++stats_.unknown_qp_dropped;
    return;
  }
  QueuePair& qp = *qp_ptr;

  const std::int32_t delta = roce::psn_distance(qp.epsn, msg.bth.psn);
  if (delta < 0) {
    // Duplicate (a retransmission). RC responder duplicate rules:
    //  - WRITE: idempotent; re-apply single-packet writes (they carry an
    //    absolute {va, rkey}, so on a gap-tolerant QP a "duplicate" may
    //    be a retransmission of a write the responder never applied) and
    //    re-ack so the requester makes progress.
    //  - READ: re-execute — reads of registered memory are idempotent
    //    and the spec explicitly allows re-serving them.
    //  - Atomic: must NOT re-execute; answer from the replay cache.
    ++qp.duplicates_seen;
    const Opcode op = msg.opcode();
    if (op == Opcode::kRdmaWriteOnly) {
      execute_write(qp, msg, /*advance_sequence=*/false);
    } else if (roce::is_write(op)) {
      if (msg.bth.ack_req) send_ack(qp, msg.bth.psn, AckSyndrome::kAck);
    } else if (roce::is_read_request(op)) {
      execute_read(qp, msg, /*advance_sequence=*/false);
    } else if (roce::is_atomic(op)) {
      if (const std::uint64_t* original = qp.atomic_replay.find(msg.bth.psn)) {
        send_ack(qp, msg.bth.psn, AckSyndrome::kAck, *original);
      } else {
        ++qp.naks_sent;
        send_ack(qp, msg.bth.psn, AckSyndrome::kNakInvalidRequest);
      }
    }
    return;
  }
  if (delta > 0) {
    if (qp.tolerate_psn_gaps) {
      // Self-contained single-packet ops: adopt the sender's PSN and
      // carry on; only the lost packet's work is lost.
      qp.epsn = msg.bth.psn;
    } else {
      // Strict RC: something was lost ahead of this packet.
      ++qp.naks_sent;
      send_ack(qp, qp.epsn, AckSyndrome::kNakSequenceError);
      return;
    }
  }

  const Opcode op = msg.opcode();
  if (roce::is_write(op)) {
    execute_write(qp, msg);
  } else if (roce::is_read_request(op)) {
    execute_read(qp, msg);
  } else if (roce::is_atomic(op)) {
    execute_atomic(qp, msg);
  } else {
    ++stats_.unknown_qp_dropped;
  }
}

void Rnic::execute_write(QueuePair& qp, const RoceMessage& msg,
                         bool advance_sequence) {
  const Opcode op = msg.opcode();
  std::uint64_t va = 0;
  std::uint32_t rkey = 0;

  if (op == Opcode::kRdmaWriteOnly || op == Opcode::kRdmaWriteFirst) {
    assert(msg.reth.has_value());
    if (!payload_fits_reth(msg)) {
      ++qp.naks_sent;
      send_ack(qp, msg.bth.psn, AckSyndrome::kNakInvalidRequest);
      return;
    }
    va = msg.reth->va;
    rkey = msg.reth->rkey;
    // Validate the whole announced transfer up front, like hardware does.
    const MemStatus status =
        memory_.check(rkey, va, msg.reth->dma_len, Access::kRemoteWrite);
    if (status != MemStatus::kOk) {
      ++qp.naks_sent;
      send_ack(qp, msg.bth.psn, AckSyndrome::kNakRemoteAccessError);
      return;
    }
    if (op == Opcode::kRdmaWriteFirst) {
      qp.write = {true, va + msg.payload.size(), rkey,
                  msg.reth->dma_len - msg.payload.size()};
    }
  } else {
    // MIDDLE / LAST continue an active transfer.
    if (!qp.write.active || msg.payload.size() > qp.write.remaining) {
      ++qp.naks_sent;
      send_ack(qp, msg.bth.psn, AckSyndrome::kNakInvalidRequest);
      return;
    }
    va = qp.write.next_va;
    rkey = qp.write.rkey;
    qp.write.next_va += msg.payload.size();
    qp.write.remaining -= msg.payload.size();
    if (op == Opcode::kRdmaWriteLast) qp.write.active = false;
  }

  MemoryRegion* region = memory_.find(rkey);
  assert(region != nullptr);  // checked at FIRST/ONLY
  if (!msg.payload.empty()) {
    auto window = region->window(va, msg.payload.size());
    std::copy(msg.payload.begin(), msg.payload.end(), window.begin());
  }

  ++stats_.writes;
  stats_.bytes_written += static_cast<std::int64_t>(msg.payload.size());
  // A duplicate's PSN was already consumed by the sequence.
  if (advance_sequence) {
    qp.epsn = roce::psn_add(qp.epsn, 1);
    if (op == Opcode::kRdmaWriteOnly || op == Opcode::kRdmaWriteLast) {
      ++qp.writes_executed;
      qp.msn = (qp.msn + 1) & 0xffffff;
    }
  }
  if (msg.bth.ack_req) {
    send_ack(qp, msg.bth.psn, AckSyndrome::kAck);
  }
}

void Rnic::execute_read(QueuePair& qp, const RoceMessage& msg,
                        bool advance_sequence) {
  assert(msg.reth.has_value());
  const std::uint64_t va = msg.reth->va;
  const std::uint32_t len = msg.reth->dma_len;
  const MemStatus status =
      memory_.check(msg.reth->rkey, va, len, Access::kRemoteRead);
  if (status != MemStatus::kOk) {
    ++qp.naks_sent;
    send_ack(qp, msg.bth.psn, AckSyndrome::kNakRemoteAccessError);
    return;
  }
  MemoryRegion* region = memory_.find(msg.reth->rkey);
  const auto data = region->window(va, len);

  const std::size_t segments =
      len == 0 ? 1 : (len + qp.path_mtu - 1) / qp.path_mtu;
  const roce::Psn first_psn = msg.bth.psn;
  if (advance_sequence) {
    qp.epsn = roce::psn_add(qp.epsn, static_cast<std::uint32_t>(segments));
    qp.msn = (qp.msn + 1) & 0xffffff;
  }
  ++qp.reads_executed;
  ++stats_.reads;
  stats_.bytes_read += len;

  send_read_response(qp, first_psn, data);
}

void Rnic::execute_atomic(QueuePair& qp, const RoceMessage& msg) {
  assert(msg.atomic_eth.has_value());
  const auto& ae = *msg.atomic_eth;
  const MemStatus status =
      memory_.check(ae.rkey, ae.va, 8, Access::kRemoteAtomic);
  if (status != MemStatus::kOk) {
    ++qp.naks_sent;
    send_ack(qp, msg.bth.psn, AckSyndrome::kNakRemoteAccessError);
    return;
  }
  MemoryRegion* region = memory_.find(ae.rkey);
  auto window = region->window(ae.va, 8);
  const std::uint64_t original = load_le64(window);
  std::uint64_t updated = original;
  if (msg.opcode() == Opcode::kFetchAdd) {
    updated = original + ae.swap_add;
  } else {  // CompareSwap
    if (original == ae.compare) updated = ae.swap_add;
  }
  store_le64(window, updated);
  qp.atomic_replay.remember(msg.bth.psn, original);

  qp.epsn = roce::psn_add(qp.epsn, 1);
  qp.msn = (qp.msn + 1) & 0xffffff;
  ++qp.atomics_executed;
  ++stats_.atomics;
  // Atomic responses are mandatory: the requester needs the original.
  send_ack(qp, msg.bth.psn, AckSyndrome::kAck, original);
}

void Rnic::send_ack(QueuePair& qp, roce::Psn psn, AckSyndrome syndrome,
                    std::optional<std::uint64_t> atomic_original) {
  RoceMessage resp;
  resp.bth.opcode = atomic_original.has_value() ? Opcode::kAtomicAcknowledge
                                                : Opcode::kAcknowledge;
  resp.bth.dest_qp = qp.remote_qpn;
  resp.bth.psn = psn;
  resp.aeth = roce::Aeth{syndrome, qp.msn};
  if (atomic_original) {
    resp.atomic_ack = roce::AtomicAckEth{*atomic_original};
  }
  if (syndrome == AckSyndrome::kAck) {
    ++stats_.acks_sent;
  } else {
    ++stats_.naks_sent;
    switch (syndrome) {
      case AckSyndrome::kRnrNak: ++stats_.naks_rnr; break;
      case AckSyndrome::kNakSequenceError:
        ++stats_.naks_sequence_error;
        break;
      case AckSyndrome::kNakInvalidRequest:
        ++stats_.naks_invalid_request;
        break;
      case AckSyndrome::kNakRemoteAccessError:
        ++stats_.naks_remote_access_error;
        break;
      case AckSyndrome::kNakRemoteOpError:
        ++stats_.naks_remote_op_error;
        break;
      case AckSyndrome::kAck: break;  // unreachable
    }
  }
  transmit_response(roce::build_roce_packet(self_, qp.remote, resp));
}

void Rnic::send_read_response(QueuePair& qp, roce::Psn first_psn,
                              std::span<const std::uint8_t> data) {
  const std::size_t mtu = qp.path_mtu;
  const std::size_t segments =
      data.empty() ? 1 : (data.size() + mtu - 1) / mtu;

  for (std::size_t i = 0; i < segments; ++i) {
    RoceMessage resp;
    if (segments == 1) {
      resp.bth.opcode = Opcode::kRdmaReadResponseOnly;
    } else if (i == 0) {
      resp.bth.opcode = Opcode::kRdmaReadResponseFirst;
    } else if (i + 1 == segments) {
      resp.bth.opcode = Opcode::kRdmaReadResponseLast;
    } else {
      resp.bth.opcode = Opcode::kRdmaReadResponseMiddle;
    }
    resp.bth.dest_qp = qp.remote_qpn;
    resp.bth.psn = roce::psn_add(first_psn, static_cast<std::uint32_t>(i));
    if (roce::has_aeth(resp.bth.opcode)) {
      resp.aeth = roce::Aeth{AckSyndrome::kAck, qp.msn};
    }
    // The segment is written into its frame straight from the region.
    const std::size_t offset = i * mtu;
    const std::size_t chunk = std::min(mtu, data.size() - offset);
    transmit_response(roce::build_roce_packet(
        self_, qp.remote, resp, roce::Gather{{}, data.subspan(offset, chunk)}));
  }
}

void Rnic::transmit_response(net::Packet&& frame) {
  if (int_enabled_) {
    net::IntHopRecord rec;
    rec.hop_id = int_hop_id_;
    rec.kind = static_cast<std::uint8_t>(net::IntHopKind::kRnic);
    rec.flags = net::IntHopRecord::kFlagDepthValid;
    rec.queue_depth = static_cast<std::uint32_t>(rx_queue_.size());
    rec.ingress_ns = net::int_timestamp_ns(int_ingress_);
    rec.egress_ns = net::int_timestamp_ns(sim_->now());
    frame.meta().int_stack.ensure().push(rec);
  }
  transmit_(std::move(frame));
}

void Rnic::register_metrics(telemetry::MetricsRegistry& registry,
                            const std::string& prefix) {
  registry.register_counter(prefix + "/requests_received",
                            &stats_.requests_received, "ops");
  registry.register_counter(prefix + "/requests_dropped_overflow",
                            &stats_.requests_dropped_overflow, "ops");
  registry.register_counter(prefix + "/dead_dropped",
                            &stats_.dead_dropped, "ops");
  registry.register_counter(prefix + "/corrupt_dropped",
                            &stats_.corrupt_dropped, "ops");
  registry.register_counter(prefix + "/unknown_qp_dropped",
                            &stats_.unknown_qp_dropped, "ops");
  registry.register_counter(prefix + "/writes", &stats_.writes, "ops");
  registry.register_counter(prefix + "/reads", &stats_.reads, "ops");
  registry.register_counter(prefix + "/atomics", &stats_.atomics, "ops");
  registry.register_counter(prefix + "/acks_sent", &stats_.acks_sent, "ops");
  registry.register_counter(prefix + "/naks_sent", &stats_.naks_sent, "ops");
  registry.register_counter(prefix + "/naks/rnr", &stats_.naks_rnr, "ops");
  registry.register_counter(prefix + "/naks/sequence_error",
                            &stats_.naks_sequence_error, "ops");
  registry.register_counter(prefix + "/naks/invalid_request",
                            &stats_.naks_invalid_request, "ops");
  registry.register_counter(prefix + "/naks/remote_access_error",
                            &stats_.naks_remote_access_error, "ops");
  registry.register_counter(prefix + "/naks/remote_op_error",
                            &stats_.naks_remote_op_error, "ops");
  registry.register_counter(prefix + "/responses_dispatched",
                            &stats_.responses_dispatched, "ops");
  registry.register_counter(prefix + "/restarts", &stats_.restarts, "restarts");
  registry.register_counter(prefix + "/ce_marked_rx",
                            &stats_.ce_marked_rx, "ops");
  registry.register_counter(prefix + "/cnps_sent", &stats_.cnps_sent, "ops");
  registry.register_counter(
      prefix + "/bytes_written", [this]() { return stats_.bytes_written; },
      "bytes");
  registry.register_counter(
      prefix + "/bytes_read", [this]() { return stats_.bytes_read; },
      "bytes");
  registry.register_gauge(
      prefix + "/rx_queue_depth",
      [this]() { return static_cast<double>(rx_queue_.size()); }, "ops");
}

}  // namespace xmem::rnic
