#include "host/traffic_gen.hpp"

#include <cassert>
#include <stdexcept>

#include "net/packet.hpp"

namespace xmem::host {

void ProbeHeader::write_to(std::span<std::uint8_t> payload) const {
  assert(payload.size() >= kBytes);
  for (std::size_t i = 0; i < 8; ++i) {
    payload[i] = static_cast<std::uint8_t>(sequence >> (56 - 8 * i));
  }
  const auto t = static_cast<std::uint64_t>(sent_at);
  for (std::size_t i = 0; i < 8; ++i) {
    payload[8 + i] = static_cast<std::uint8_t>(t >> (56 - 8 * i));
  }
}

ProbeHeader ProbeHeader::read_from(std::span<const std::uint8_t> payload) {
  assert(payload.size() >= kBytes);
  ProbeHeader h;
  for (std::size_t i = 0; i < 8; ++i) {
    h.sequence = (h.sequence << 8) | payload[i];
  }
  std::uint64_t t = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    t = (t << 8) | payload[8 + i];
  }
  h.sent_at = static_cast<sim::Time>(t);
  return h;
}

CbrTrafficGen::CbrTrafficGen(Host& host, Config config)
    : host_(&host), config_(config) {
  if (config_.frame_size < net::kEthernetMinFrame) {
    throw std::invalid_argument(
        "CbrTrafficGen: frame_size must be at least a minimum Ethernet frame");
  }
  // transmission_time() divides by the rate.
  if (config_.rate <= 0) {
    throw std::invalid_argument("CbrTrafficGen: rate must be > 0");
  }
  // Inter-departure spacing so that frame bits average to `rate`.
  interval_ = sim::transmission_time(
      static_cast<std::int64_t>(config_.frame_size), config_.rate);
}

void CbrTrafficGen::start() {
  if (running_) return;
  running_ = true;
  host_->simulator().schedule_in(0, [this]() { send_next(); });
}

void CbrTrafficGen::send_next() {
  if (!running_) return;
  if ((config_.packet_limit != 0 && sent_ >= config_.packet_limit) ||
      (config_.byte_limit != 0 && bytes_ >= config_.byte_limit)) {
    running_ = false;
    if (on_finish_) on_finish_();
    return;
  }

  const std::size_t overhead = net::kEthernetHeaderBytes +
                               net::kIpv4HeaderBytes + net::kUdpHeaderBytes;
  const std::size_t payload_len =
      config_.frame_size > overhead + ProbeHeader::kBytes
          ? config_.frame_size - overhead
          : ProbeHeader::kBytes;
  std::vector<std::uint8_t> payload(payload_len, 0);
  ProbeHeader probe{sent_, host_->simulator().now()};
  probe.write_to(payload);

  net::Packet packet = net::build_udp_packet(
      host_->mac(), config_.dst_mac, host_->ip(), config_.dst_ip,
      config_.src_port, config_.dst_port, payload);
  packet.meta().created = host_->simulator().now();
  packet.meta().app_seq = sent_;

  ++sent_;
  bytes_ += static_cast<std::int64_t>(packet.size());
  host_->send(std::move(packet));

  host_->simulator().schedule_in(interval_, [this]() { send_next(); });
}

IncastCoordinator::IncastCoordinator(std::vector<Host*> senders,
                                     Config config)
    : config_(config), jitter_rng_(config.jitter_seed), senders_(std::move(senders)) {
  std::uint16_t src_port = 7000;
  for (Host* sender : senders_) {
    CbrTrafficGen::Config gc;
    gc.dst_mac = config_.dst_mac;
    gc.dst_ip = config_.dst_ip;
    gc.src_port = src_port++;
    gc.frame_size = config_.frame_size;
    gc.rate = config_.sender_rate;
    gc.byte_limit = config_.burst_bytes_per_sender;
    gens_.push_back(std::make_unique<CbrTrafficGen>(*sender, gc));
  }
}

void IncastCoordinator::start(sim::Time at) {
  for (auto& gen : gens_) {
    sim::Time jitter = 0;
    if (config_.start_jitter > 0) {
      jitter = static_cast<sim::Time>(jitter_rng_.uniform(
          static_cast<std::uint64_t>(config_.start_jitter)));
    }
    auto& sim = senders_.front()->simulator();
    sim.schedule_at(at + jitter, [g = gen.get()]() { g->start(); });
  }
}

std::uint64_t IncastCoordinator::total_packets_sent() const {
  std::uint64_t n = 0;
  for (const auto& gen : gens_) n += gen->packets_sent();
  return n;
}

std::int64_t IncastCoordinator::total_bytes_sent() const {
  std::int64_t n = 0;
  for (const auto& gen : gens_) n += gen->bytes_sent();
  return n;
}

bool IncastCoordinator::all_finished() const {
  for (const auto& gen : gens_) {
    if (!gen->finished()) return false;
  }
  return true;
}

}  // namespace xmem::host
