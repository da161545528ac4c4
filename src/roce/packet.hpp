// RoCE message <-> Ethernet frame conversion.
//
// A RoceMessage is the logical content of one RoCE packet: BTH, whichever
// extension headers the opcode requires, and an (unpadded) payload.
// build_roce_packet() produces the byte-exact frame — Ethernet + (IPv4 +
// UDP | GRH) + transport headers + padded payload + ICRC — sized up front
// and written once, with the payload copied in from where it lies.
// parse_roce_packet() reverses it in place, validating the ICRC: the
// parsed payload is a slice of the frame, not a copy.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "roce/grh.hpp"
#include "roce/headers.hpp"
#include "roce/opcodes.hpp"

namespace xmem::roce {

/// Which wire encapsulation carries the IB transport headers.
enum class RoceVersion {
  kV2,  // Ethernet / IPv4 / UDP(4791) / BTH ...   (40 B of routing+transport)
  kV1,  // Ethernet / GRH / BTH ...                (52 B)
};

/// L2/L3 identity of one end of an RDMA channel.
struct RoceEndpoint {
  net::MacAddress mac;
  net::Ipv4Address ip;
  std::uint16_t udp_port = 0;  // requester's source port (flow entropy)
};

struct RoceMessage {
  Bth bth;
  std::optional<Reth> reth;
  std::optional<AtomicEth> atomic_eth;
  std::optional<Aeth> aeth;
  std::optional<AtomicAckEth> atomic_ack;
  std::optional<CnpEth> cnp;
  /// Unpadded payload. A parsed message's payload is a slice of the frame
  /// it was parsed from; a message built by hand owns its bytes.
  net::ByteSlice payload;
  /// ECN codepoint of the enclosing IP header. build_roce_packet() emits
  /// it (RoCEv2 frames default to ECT(0), so switch queues may CE-mark
  /// them); parse_roce_packet() recovers it, which is how a responder
  /// sees congestion marks the fabric applied in transit. RoCEv1 has no
  /// IP header: the field stays at its default there.
  net::Ecn ecn = net::Ecn::kEct0;

  [[nodiscard]] Opcode opcode() const { return bth.opcode; }
};

/// A payload that lies in place elsewhere, as two consecutive pieces
/// (`head` may be empty). build_roce_packet() copies it into the frame
/// once: a packet-buffer entry is a length word and a tenant frame, a
/// READ response segment a window of a registered region.
struct Gather {
  std::span<const std::uint8_t> head;
  std::span<const std::uint8_t> body;

  [[nodiscard]] std::size_t size() const { return head.size() + body.size(); }
  /// Bytes [offset, offset + len) of head followed by body (one segment
  /// of a multi-MTU payload).
  [[nodiscard]] Gather sub(std::size_t offset, std::size_t len) const;
};

/// Serialize `msg` into a ready-to-transmit frame. Fills in lengths, pad
/// count and ICRC; validates that the extension headers present match the
/// opcode (throws std::invalid_argument otherwise).
[[nodiscard]] net::Packet build_roce_packet(const RoceEndpoint& src,
                                            const RoceEndpoint& dst,
                                            const RoceMessage& msg,
                                            RoceVersion version =
                                                RoceVersion::kV2);

/// The same frame with `payload` as the payload, copied straight from
/// where it lies. `headers.payload` must be empty (std::invalid_argument
/// otherwise).
[[nodiscard]] net::Packet build_roce_packet(const RoceEndpoint& src,
                                            const RoceEndpoint& dst,
                                            const RoceMessage& headers,
                                            Gather payload,
                                            RoceVersion version =
                                                RoceVersion::kV2);

/// Parse a frame. Returns nullopt if the frame is not RoCE at all (wrong
/// EtherType / UDP port) or if the ICRC does not verify (treated as wire
/// corruption: real RNICs silently drop such packets). The payload is a
/// slice of `p`.
[[nodiscard]] std::optional<RoceMessage> parse_roce_packet(
    const net::Packet& p);

/// parse_roce_packet() for a RoCEv2 frame whose Ethernet, IPv4 and UDP
/// headers are already parsed (`headers` is net::parse_packet(p) and
/// is_roce_v2()): the transport parse starts at the UDP payload offset.
/// The ICRC still covers the whole frame.
[[nodiscard]] std::optional<RoceMessage> parse_roce_packet(
    const net::Packet& p, const net::ParsedPacket& headers);

/// On-wire header+trailer overhead for one request of the given opcode,
/// excluding Ethernet framing: routing/transport headers plus ICRC.
/// This is the paper's §4 arithmetic (40 B RoCEv2 / 52 B RoCEv1, plus
/// 16 B WRITE/READ or 28 B Fetch-and-Add, plus 4 B ICRC).
[[nodiscard]] std::size_t roce_overhead_bytes(Opcode op,
                                              RoceVersion version =
                                                  RoceVersion::kV2);

/// Exact ICRC over an already-built frame (without its trailing 4 ICRC
/// bytes). Exposed for tests. Throws std::invalid_argument if the frame is
/// shorter than Ethernet + routing header (IPv4+UDP or GRH) + BTH.
[[nodiscard]] std::uint32_t compute_icrc(std::span<const std::uint8_t> frame,
                                         RoceVersion version);

}  // namespace xmem::roce
