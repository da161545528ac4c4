#include "host/netpipe.hpp"

#include "net/packet.hpp"

namespace xmem::host {

LatencyProbe::LatencyProbe(Host& source, Host& sink, Config config)
    : source_(&source), sink_(&sink), config_(config) {
  sink_->set_app(
      [this](net::Packet&& packet, int) { on_arrival(packet); });
}

void LatencyProbe::start() {
  source_->simulator().schedule_in(0, [this]() { send_probe(); });
}

void LatencyProbe::send_probe() {
  if (sent_ >= config_.samples) return;

  const std::size_t overhead = net::kEthernetHeaderBytes +
                               net::kIpv4HeaderBytes + net::kUdpHeaderBytes;
  const std::size_t payload_len =
      config_.frame_size > overhead + ProbeHeader::kBytes
          ? config_.frame_size - overhead
          : ProbeHeader::kBytes;
  std::vector<std::uint8_t> payload(payload_len, 0);
  ProbeHeader probe{sent_, source_->simulator().now()};
  probe.write_to(payload);

  net::Packet packet = net::build_udp_packet(
      source_->mac(), config_.dst_mac, source_->ip(), config_.dst_ip,
      config_.src_port, config_.dst_port, payload);
  ++sent_;
  source_->send(std::move(packet));
}

void LatencyProbe::on_arrival(const net::Packet& packet) {
  const std::size_t overhead = net::kEthernetHeaderBytes +
                               net::kIpv4HeaderBytes + net::kUdpHeaderBytes;
  if (packet.size() < overhead + ProbeHeader::kBytes) return;
  const auto probe = ProbeHeader::read_from(packet.bytes().subspan(overhead));
  latency_us_.add(
      sim::to_microseconds(sink_->simulator().now() - probe.sent_at));
  ++received_;

  if (received_ >= config_.samples) {
    if (on_finish_) on_finish_();
    return;
  }
  sink_->simulator().schedule_in(kThinkTime, [this]() { send_probe(); });
}

}  // namespace xmem::host
