#include "roce/packet.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

#include "net/checksum.hpp"

namespace xmem::roce {

namespace {

std::size_t extension_bytes(const RoceMessage& msg) {
  std::size_t n = 0;
  if (msg.reth) n += kRethBytes;
  if (msg.atomic_eth) n += kAtomicEthBytes;
  if (msg.aeth) n += kAethBytes;
  if (msg.atomic_ack) n += kAtomicAckEthBytes;
  if (msg.cnp) n += kCnpEthBytes;
  return n;
}

void check_headers_match_opcode(const RoceMessage& msg,
                                std::size_t payload_bytes) {
  const Opcode op = msg.opcode();
  if (has_reth(op) != msg.reth.has_value()) {
    throw std::invalid_argument("RoceMessage: RETH presence mismatch for " +
                                std::string(to_string(op)));
  }
  if (has_atomic_eth(op) != msg.atomic_eth.has_value()) {
    throw std::invalid_argument(
        "RoceMessage: AtomicETH presence mismatch for " +
        std::string(to_string(op)));
  }
  if (has_aeth(op) != msg.aeth.has_value()) {
    throw std::invalid_argument("RoceMessage: AETH presence mismatch for " +
                                std::string(to_string(op)));
  }
  if (has_atomic_ack_eth(op) != msg.atomic_ack.has_value()) {
    throw std::invalid_argument(
        "RoceMessage: AtomicAckETH presence mismatch for " +
        std::string(to_string(op)));
  }
  if (has_cnp_eth(op) != msg.cnp.has_value()) {
    throw std::invalid_argument("RoceMessage: CnpETH presence mismatch for " +
                                std::string(to_string(op)));
  }
  if (payload_bytes > 0 && !has_payload(op)) {
    throw std::invalid_argument("RoceMessage: opcode carries no payload: " +
                                std::string(to_string(op)));
  }
}

// Routing header (IPv4 + UDP, or GRH) plus BTH: the fixed part of every
// frame's overhead, and the only bytes in which the ICRC masks fields.
std::size_t routing_and_bth_bytes(RoceVersion version) {
  if (version == RoceVersion::kV1) return kGrhBytes + kBthBytes;
  return net::kIpv4HeaderBytes + net::kUdpHeaderBytes + kBthBytes;
}

net::Packet build(const RoceEndpoint& src, const RoceEndpoint& dst,
                  const RoceMessage& msg, Gather payload,
                  RoceVersion version) {
  check_headers_match_opcode(msg, payload.size());

  const std::size_t pad = (4 - (payload.size() % 4)) % 4;
  const std::size_t transport_bytes = kBthBytes + extension_bytes(msg) +
                                      payload.size() + pad + kIcrcBytes;
  const std::size_t routing_bytes =
      routing_and_bth_bytes(version) - kBthBytes;

  net::ByteSlice frame = net::ByteSlice::allocate(
      net::kEthernetHeaderBytes + routing_bytes + transport_bytes);
  net::ByteWriter w(frame.mutable_bytes());

  net::EthernetHeader eth;
  eth.dst = dst.mac;
  eth.src = src.mac;
  eth.set_type(version == RoceVersion::kV2 ? net::EtherType::kIpv4
                                           : net::EtherType::kRoceV1);
  eth.serialize(w);

  if (version == RoceVersion::kV2) {
    net::Ipv4Header ip;
    ip.total_length = static_cast<std::uint16_t>(
        net::kIpv4HeaderBytes + net::kUdpHeaderBytes + transport_bytes);
    ip.protocol = static_cast<std::uint8_t>(net::IpProto::kUdp);
    ip.src = src.ip;
    ip.dst = dst.ip;
    ip.ecn = msg.ecn;  // defaults to ECT(0): RoCEv2 runs ECN-capable
    ip.serialize(w);

    net::UdpHeader udp;
    udp.src_port = src.udp_port;
    udp.dst_port = net::kRoceV2Port;
    udp.length =
        static_cast<std::uint16_t>(net::kUdpHeaderBytes + transport_bytes);
    udp.checksum = 0;  // RoCEv2 transmits UDP checksum zero
    udp.serialize(w);
  } else {
    Grh grh;
    grh.payload_length = static_cast<std::uint16_t>(transport_bytes);
    grh.sgid = Grh::gid_from_ipv4(src.ip.value());
    grh.dgid = Grh::gid_from_ipv4(dst.ip.value());
    grh.serialize(w);
  }

  Bth bth = msg.bth;
  bth.pad_count = static_cast<std::uint8_t>(pad);
  bth.serialize(w);
  if (msg.reth) msg.reth->serialize(w);
  if (msg.atomic_eth) msg.atomic_eth->serialize(w);
  if (msg.aeth) msg.aeth->serialize(w);
  if (msg.atomic_ack) msg.atomic_ack->serialize(w);
  if (msg.cnp) msg.cnp->serialize(w);
  w.bytes(payload.head);
  w.bytes(payload.body);
  w.zeros(pad);
  w.u32(compute_icrc(w.written(), version));
  return net::Packet(std::move(frame));
}

/// Everything after the routing header: ICRC check over the whole frame,
/// then BTH, extension headers and the payload as a slice of `p`.
std::optional<RoceMessage> parse_transport(const net::Packet& p,
                                           std::size_t offset,
                                           RoceVersion version,
                                           net::Ecn ecn) {
  if (p.size() < offset + kBthBytes + kIcrcBytes) return std::nullopt;

  // Validate ICRC before trusting anything else.
  const std::size_t icrc_offset = p.size() - kIcrcBytes;
  const std::uint32_t expected =
      compute_icrc(p.bytes().first(icrc_offset), version);
  net::ByteReader icrc_reader(p.bytes().subspan(icrc_offset));
  if (icrc_reader.u32() != expected) return std::nullopt;

  net::ByteReader r(p.bytes().subspan(offset, icrc_offset - offset));
  RoceMessage msg;
  msg.ecn = ecn;
  msg.bth = Bth::parse(r);
  const Opcode op = msg.bth.opcode;
  if (has_reth(op)) msg.reth = Reth::parse(r);
  if (has_atomic_eth(op)) msg.atomic_eth = AtomicEth::parse(r);
  if (has_aeth(op)) msg.aeth = Aeth::parse(r);
  if (has_atomic_ack_eth(op)) msg.atomic_ack = AtomicAckEth::parse(r);
  if (has_cnp_eth(op)) msg.cnp = CnpEth::parse(r);

  if (r.remaining() < msg.bth.pad_count) return std::nullopt;
  const std::size_t payload_len = r.remaining() - msg.bth.pad_count;
  if (payload_len > 0 && !has_payload(op)) return std::nullopt;
  msg.payload = p.slice(offset + r.position(), payload_len);
  return msg;
}

}  // namespace

Gather Gather::sub(std::size_t offset, std::size_t len) const {
  assert(offset <= size() && len <= size() - offset);
  const std::size_t in_head =
      offset < head.size() ? std::min(len, head.size() - offset) : 0;
  Gather out;
  out.head = head.subspan(std::min(offset, head.size()), in_head);
  out.body = body.subspan(offset > head.size() ? offset - head.size() : 0,
                          len - in_head);
  return out;
}

std::uint32_t compute_icrc(std::span<const std::uint8_t> frame,
                           RoceVersion version) {
  // The CRC covers a masked pseudo-frame: 8 bytes of 0xFF in place of
  // deterministically varying routing fields, then the packet from the
  // routing header onwards (Ethernet is not covered) with the mutable
  // fields (ToS/TTL/IP checksum/UDP checksum for v2; TClass/hop limit for
  // v1; BTH resv8a) forced to ones. Only the routing header and BTH are
  // copied and masked; the CRC then continues over the rest of the frame
  // in place.
  const std::size_t masked = routing_and_bth_bytes(version);
  if (frame.size() < net::kEthernetHeaderBytes + masked) {
    throw std::invalid_argument(
        "compute_icrc: frame shorter than its routing header and BTH");
  }
  constexpr std::size_t base = 8;  // offset of the routing header in `pseudo`
  std::array<std::uint8_t, base + kGrhBytes + kBthBytes> pseudo{};
  std::fill_n(pseudo.begin(), base, 0xff);
  const auto covered = frame.subspan(net::kEthernetHeaderBytes);
  std::copy_n(covered.begin(), masked, pseudo.begin() + base);

  if (version == RoceVersion::kV2) {
    pseudo[base + 1] = 0xff;   // IPv4 ToS (DSCP+ECN)
    pseudo[base + 8] = 0xff;   // TTL
    pseudo[base + 10] = 0xff;  // header checksum
    pseudo[base + 11] = 0xff;
    pseudo[base + 20 + 6] = 0xff;  // UDP checksum
    pseudo[base + 20 + 7] = 0xff;
    pseudo[base + 28 + 4] = 0xff;  // BTH resv8a
  } else {
    // GRH: traffic class spans the low nibble of byte 0 and high nibble
    // of byte 1; hop limit is byte 7.
    pseudo[base + 0] |= 0x0f;
    pseudo[base + 1] |= 0xf0;
    pseudo[base + 7] = 0xff;
    pseudo[base + 40 + 4] = 0xff;  // BTH resv8a
  }
  const std::uint32_t head = net::crc32(std::span(pseudo).first(base + masked));
  return net::crc32(covered.subspan(masked), head);
}

net::Packet build_roce_packet(const RoceEndpoint& src, const RoceEndpoint& dst,
                              const RoceMessage& msg, RoceVersion version) {
  return build(src, dst, msg, Gather{{}, msg.payload.span()}, version);
}

net::Packet build_roce_packet(const RoceEndpoint& src, const RoceEndpoint& dst,
                              const RoceMessage& headers, Gather payload,
                              RoceVersion version) {
  if (!headers.payload.empty()) {
    throw std::invalid_argument(
        "build_roce_packet: a gathered payload replaces the message's own");
  }
  return build(src, dst, headers, payload, version);
}

std::optional<RoceMessage> parse_roce_packet(const net::Packet& p) {
  try {
    const net::ParsedPacket headers = net::parse_packet(p);
    if (headers.is_roce_v2()) return parse_roce_packet(p, headers);
    if (headers.eth.type() != net::EtherType::kRoceV1) return std::nullopt;
    net::ByteReader r(p.bytes());
    r.skip(net::kEthernetHeaderBytes);
    Grh::parse(r);
    return parse_transport(p, r.position(), RoceVersion::kV1,
                           net::Ecn::kEct0);
  } catch (const net::BufferError&) {
    return std::nullopt;  // malformed: treated as line noise and dropped
  }
}

std::optional<RoceMessage> parse_roce_packet(const net::Packet& p,
                                             const net::ParsedPacket& headers) {
  assert(headers.is_roce_v2() && "parse_roce_packet: not a RoCEv2 frame");
  try {
    return parse_transport(p, headers.l4_payload_offset, RoceVersion::kV2,
                           headers.ipv4->ecn);
  } catch (const net::BufferError&) {
    return std::nullopt;  // malformed: treated as line noise and dropped
  }
}

std::size_t roce_overhead_bytes(Opcode op, RoceVersion version) {
  std::size_t n = routing_and_bth_bytes(version);
  if (has_reth(op)) n += kRethBytes;
  if (has_atomic_eth(op)) n += kAtomicEthBytes;
  if (has_aeth(op)) n += kAethBytes;
  if (has_atomic_ack_eth(op)) n += kAtomicAckEthBytes;
  if (has_cnp_eth(op)) n += kCnpEthBytes;
  n += kIcrcBytes;
  return n;
}

}  // namespace xmem::roce
