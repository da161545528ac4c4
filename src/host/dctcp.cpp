#include "host/dctcp.hpp"

#include <algorithm>

#include "net/bytes.hpp"
#include "net/flow.hpp"
#include "net/packet.hpp"

namespace xmem::host {

namespace {

/// Echo payload: [u32 marked][u32 window].
constexpr std::size_t kEchoBytes = 8;

}  // namespace

EcnEchoReceiver::EcnEchoReceiver(Host& host, Forward next)
    : host_(&host), next_(std::move(next)) {
  host.set_app([this](net::Packet&& packet, int) { on_packet(std::move(packet)); });
}

void EcnEchoReceiver::on_packet(net::Packet&& packet) {
  auto parsed = net::extract_five_tuple(packet);
  if (parsed) {
    ++window_seen_;
    try {
      const auto headers = net::parse_packet(packet);
      if (headers.ipv4 && headers.ipv4->ecn == net::Ecn::kCe) {
        ++window_marked_;
        ++ce_marked_;
      }
    } catch (const net::BufferError&) {
    }

    if (window_seen_ >= kWindow) {
      // Echo the marked fraction back to the sender.
      std::vector<std::uint8_t> payload;
      net::ByteWriter w(payload);
      w.u32(static_cast<std::uint32_t>(window_marked_));
      w.u32(static_cast<std::uint32_t>(window_seen_));
      const auto b = packet.bytes();
      std::array<std::uint8_t, 6> sender_mac{};
      std::copy(b.begin() + 6, b.begin() + 12, sender_mac.begin());
      host_->send(net::build_udp_packet(
          host_->mac(), net::MacAddress(sender_mac), host_->ip(),
          parsed->src_ip, kEcnEchoPort, kEcnEchoPort, payload));
      ++echoes_;
      window_seen_ = 0;
      window_marked_ = 0;
    }
  }
  if (next_) next_(packet);
}

DctcpSender::DctcpSender(Host& host, Config config)
    : host_(&host), config_(config), rate_(config.traffic.rate),
      min_seen_(config.traffic.rate) {
  host.set_app([this](net::Packet&& packet, int) {
    auto tuple = net::extract_five_tuple(packet);
    if (!tuple || tuple->dst_port != kEcnEchoPort) return;
    const std::size_t overhead = net::kEthernetHeaderBytes +
                                 net::kIpv4HeaderBytes + net::kUdpHeaderBytes;
    // Bound-check the span itself (not packet.size()) so the compiler can
    // see the reader never runs past an empty packet.
    const auto bytes = packet.bytes();
    if (bytes.size() < overhead + kEchoBytes) return;
    net::ByteReader r(bytes.subspan(overhead));
    const std::uint32_t marked = r.u32();
    const std::uint32_t window = r.u32();
    if (window == 0) return;
    on_echo(static_cast<double>(marked) / static_cast<double>(window));
  });
}

void DctcpSender::start() {
  if (running_) return;
  running_ = true;
  host_->simulator().schedule_in(0, [this]() { send_next(); });
}

void DctcpSender::stop() { running_ = false; }

void DctcpSender::on_echo(double marked_fraction) {
  // DCTCP: alpha <- (1-g) alpha + g F;  rate cut by alpha/2 when any
  // marks arrived, additive increase otherwise.
  alpha_ = (1.0 - kAlphaGain) * alpha_ + kAlphaGain * marked_fraction;
  if (marked_fraction > 0.0) {
    rate_ = std::max<sim::Bandwidth>(
        kMinRate,
        static_cast<sim::Bandwidth>(static_cast<double>(rate_) *
                                    (1.0 - alpha_ / 2.0)));
    ++rate_cuts_;
    min_seen_ = std::min(min_seen_, rate_);
  } else {
    rate_ = std::min(kMaxRate, rate_ + kIncrease);
  }
}

void DctcpSender::send_next() {
  if (!running_) return;
  const auto& t = config_.traffic;
  if ((t.packet_limit != 0 && sent_ >= t.packet_limit) ||
      (t.byte_limit != 0 && bytes_ >= t.byte_limit)) {
    running_ = false;
    finished_ = true;
    return;
  }

  const std::size_t overhead = net::kEthernetHeaderBytes +
                               net::kIpv4HeaderBytes + net::kUdpHeaderBytes;
  const std::size_t payload_len =
      t.frame_size > overhead + ProbeHeader::kBytes ? t.frame_size - overhead
                                                    : ProbeHeader::kBytes;
  std::vector<std::uint8_t> payload(payload_len, 0);
  ProbeHeader probe{sent_, host_->simulator().now()};
  probe.write_to(payload);
  net::Packet packet =
      net::build_udp_packet(host_->mac(), t.dst_mac, host_->ip(), t.dst_ip,
                            t.src_port, t.dst_port, payload);
  net::set_ecn(packet, net::Ecn::kEct0);  // ECN-capable transport
  ++sent_;
  bytes_ += static_cast<std::int64_t>(packet.size());
  host_->send(std::move(packet));

  host_->simulator().schedule_in(
      sim::transmission_time(static_cast<std::int64_t>(t.frame_size), rate_),
      [this]() { send_next(); });
}

}  // namespace xmem::host
