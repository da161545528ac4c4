// Unit tests for the RoCE layer: opcode properties, header round trips,
// PSN arithmetic, frame build/parse with ICRC validation, RoCEv1/GRH,
// and the §4 header-overhead arithmetic the paper quotes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/packet.hpp"
#include "roce/grh.hpp"
#include "roce/headers.hpp"
#include "roce/opcodes.hpp"
#include "roce/packet.hpp"

namespace xmem::roce {
namespace {

RoceEndpoint endpoint_a() {
  return {net::MacAddress::from_index(1), net::Ipv4Address::from_index(1),
          0xd000};
}
RoceEndpoint endpoint_b() {
  return {net::MacAddress::from_index(2), net::Ipv4Address::from_index(2),
          0xc000};
}

TEST(Opcodes, Classification) {
  EXPECT_TRUE(is_write(Opcode::kRdmaWriteOnly));
  EXPECT_TRUE(is_write(Opcode::kRdmaWriteMiddle));
  EXPECT_FALSE(is_write(Opcode::kRdmaReadRequest));
  EXPECT_TRUE(is_read_request(Opcode::kRdmaReadRequest));
  EXPECT_TRUE(is_read_response(Opcode::kRdmaReadResponseOnly));
  EXPECT_TRUE(is_atomic(Opcode::kFetchAdd));
  EXPECT_TRUE(is_atomic(Opcode::kCompareSwap));
  EXPECT_TRUE(is_request(Opcode::kFetchAdd));
  EXPECT_TRUE(is_response(Opcode::kAcknowledge));
  EXPECT_TRUE(is_response(Opcode::kAtomicAcknowledge));
  EXPECT_FALSE(is_response(Opcode::kRdmaWriteOnly));
}

TEST(Opcodes, ExtensionHeaderPresence) {
  EXPECT_TRUE(has_reth(Opcode::kRdmaWriteOnly));
  EXPECT_TRUE(has_reth(Opcode::kRdmaWriteFirst));
  EXPECT_FALSE(has_reth(Opcode::kRdmaWriteMiddle));
  EXPECT_FALSE(has_reth(Opcode::kRdmaWriteLast));
  EXPECT_TRUE(has_reth(Opcode::kRdmaReadRequest));
  EXPECT_TRUE(has_atomic_eth(Opcode::kFetchAdd));
  EXPECT_TRUE(has_aeth(Opcode::kAcknowledge));
  EXPECT_TRUE(has_aeth(Opcode::kRdmaReadResponseOnly));
  EXPECT_TRUE(has_aeth(Opcode::kRdmaReadResponseFirst));
  EXPECT_FALSE(has_aeth(Opcode::kRdmaReadResponseMiddle));
  EXPECT_TRUE(has_atomic_ack_eth(Opcode::kAtomicAcknowledge));
  EXPECT_TRUE(has_payload(Opcode::kRdmaWriteOnly));
  EXPECT_TRUE(has_payload(Opcode::kRdmaReadResponseMiddle));
  EXPECT_FALSE(has_payload(Opcode::kFetchAdd));
}

TEST(Psn, AddWraps24Bits) {
  EXPECT_EQ(psn_add(Psn(0xfffffe), 1), Psn(0xffffff));
  EXPECT_EQ(psn_add(Psn(0xffffff), 1), Psn(0));
  EXPECT_EQ(psn_add(Psn(0xffffff), 2), Psn(1));
}

TEST(Psn, DistanceSigned) {
  EXPECT_EQ(psn_distance(Psn(5), Psn(10)), 5);
  EXPECT_EQ(psn_distance(Psn(10), Psn(5)), -5);
  EXPECT_EQ(psn_distance(Psn(0xffffff), Psn(0)), 1);
  EXPECT_EQ(psn_distance(Psn(0), Psn(0xffffff)), -1);
  EXPECT_EQ(psn_distance(Psn(7), Psn(7)), 0);
}

TEST(Headers, BthRoundTrip) {
  Bth h;
  h.opcode = Opcode::kFetchAdd;
  h.solicited_event = true;
  h.pad_count = 3;
  h.pkey = 0x1234;
  h.dest_qp = 0xabcdef;
  h.ack_req = true;
  h.psn = Psn(0x123456);
  std::vector<std::uint8_t> buf;
  net::ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kBthBytes);
  net::ByteReader r(buf);
  EXPECT_EQ(Bth::parse(r), h);
}

TEST(Headers, RethRoundTrip) {
  Reth h{0x123456789abcdef0ULL, 0xcafe, 4096};
  std::vector<std::uint8_t> buf;
  net::ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kRethBytes);
  net::ByteReader r(buf);
  EXPECT_EQ(Reth::parse(r), h);
}

TEST(Headers, AtomicEthRoundTrip) {
  AtomicEth h{0xdeadbeef0000ULL, 0x77, 42, 99};
  std::vector<std::uint8_t> buf;
  net::ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kAtomicEthBytes);
  net::ByteReader r(buf);
  EXPECT_EQ(AtomicEth::parse(r), h);
}

TEST(Headers, AethRoundTripAndNak) {
  Aeth ok{AckSyndrome::kAck, 0x123456};
  EXPECT_FALSE(ok.is_nak());
  Aeth nak{AckSyndrome::kNakSequenceError, 5};
  EXPECT_TRUE(nak.is_nak());
  std::vector<std::uint8_t> buf;
  net::ByteWriter w(buf);
  nak.serialize(w);
  net::ByteReader r(buf);
  EXPECT_EQ(Aeth::parse(r), nak);
}

TEST(Grh, RoundTripAndGid) {
  Grh h;
  h.traffic_class = 7;
  h.flow_label = 0xabcde;
  h.payload_length = 100;
  h.sgid = Grh::gid_from_ipv4(0x0a000001);
  h.dgid = Grh::gid_from_ipv4(0x0a000002);
  std::vector<std::uint8_t> buf;
  net::ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kGrhBytes);
  net::ByteReader r(buf);
  EXPECT_EQ(Grh::parse(r), h);
  // ::ffff:10.0.0.1 embedding
  EXPECT_EQ(h.sgid[10], 0xff);
  EXPECT_EQ(h.sgid[15], 0x01);
}

TEST(RocePacket, WriteOnlyRoundTrip) {
  RoceMessage msg;
  msg.bth.opcode = Opcode::kRdmaWriteOnly;
  msg.bth.dest_qp = 0x11;
  msg.bth.psn = Psn(42);
  msg.reth = Reth{0x1000, 0xaa, 5};
  msg.payload = {1, 2, 3, 4, 5};

  net::Packet frame = build_roce_packet(endpoint_a(), endpoint_b(), msg);
  auto parsed = parse_roce_packet(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->opcode(), Opcode::kRdmaWriteOnly);
  EXPECT_EQ(parsed->bth.psn, Psn(42));
  EXPECT_EQ(parsed->reth->va, 0x1000u);
  EXPECT_EQ(parsed->payload, msg.payload);
}

TEST(RocePacket, PaddingRestoredExactly) {
  for (std::size_t len : {0u, 1u, 2u, 3u, 4u, 5u, 31u}) {
    RoceMessage msg;
    msg.bth.opcode = Opcode::kRdmaWriteOnly;
    msg.reth = Reth{0, 0, static_cast<std::uint32_t>(len)};
    msg.payload.assign(len, 0x5a);
    net::Packet frame = build_roce_packet(endpoint_a(), endpoint_b(), msg);
    auto parsed = parse_roce_packet(frame);
    ASSERT_TRUE(parsed.has_value()) << "len=" << len;
    EXPECT_EQ(parsed->payload.size(), len) << "len=" << len;
  }
}

TEST(RocePacket, IcrcRejectsCorruption) {
  RoceMessage msg;
  msg.bth.opcode = Opcode::kRdmaWriteOnly;
  msg.reth = Reth{0, 0, 4};
  msg.payload = {9, 9, 9, 9};
  net::Packet frame = build_roce_packet(endpoint_a(), endpoint_b(), msg);
  ASSERT_TRUE(parse_roce_packet(frame).has_value());
  // Flip one payload bit.
  frame.mutable_bytes()[frame.size() - 6] ^= 0x01;
  EXPECT_FALSE(parse_roce_packet(frame).has_value());
}

TEST(RocePacket, IcrcIgnoresMutableFields) {
  RoceMessage msg;
  msg.bth.opcode = Opcode::kRdmaWriteOnly;
  msg.reth = Reth{0, 0, 0};
  net::Packet frame = build_roce_packet(endpoint_a(), endpoint_b(), msg);
  // Rewriting DSCP (ToS + IP checksum change) must not break the ICRC —
  // switches legitimately remark RoCE traffic in flight.
  ASSERT_TRUE(net::rewrite_dscp(frame, 46));
  EXPECT_TRUE(parse_roce_packet(frame).has_value());
}

TEST(RocePacket, NonRoceReturnsNullopt) {
  net::Packet p = net::build_udp_packet(
      net::MacAddress::from_index(1), net::MacAddress::from_index(2),
      net::Ipv4Address(1, 1, 1, 1), net::Ipv4Address(2, 2, 2, 2), 5, 6,
      std::vector<std::uint8_t>(20, 0));
  EXPECT_FALSE(parse_roce_packet(p).has_value());
  net::Packet garbage(std::vector<std::uint8_t>(8, 0));
  EXPECT_FALSE(parse_roce_packet(garbage).has_value());
}

TEST(RocePacket, HeaderOpcodeMismatchThrows) {
  RoceMessage msg;
  msg.bth.opcode = Opcode::kRdmaWriteOnly;  // needs RETH
  EXPECT_THROW(build_roce_packet(endpoint_a(), endpoint_b(), msg),
               std::invalid_argument);
  RoceMessage atomic;
  atomic.bth.opcode = Opcode::kFetchAdd;
  atomic.atomic_eth = AtomicEth{};
  atomic.payload = {1};  // atomics carry no payload
  EXPECT_THROW(build_roce_packet(endpoint_a(), endpoint_b(), atomic),
               std::invalid_argument);
}

TEST(RocePacket, RoceV1RoundTrip) {
  RoceMessage msg;
  msg.bth.opcode = Opcode::kFetchAdd;
  msg.bth.dest_qp = 3;
  msg.atomic_eth = AtomicEth{0x2000, 0xbb, 1, 0};
  net::Packet frame =
      build_roce_packet(endpoint_a(), endpoint_b(), msg, RoceVersion::kV1);
  // EtherType must be the RoCEv1 value.
  EXPECT_EQ(frame.bytes()[12], 0x89);
  EXPECT_EQ(frame.bytes()[13], 0x15);
  auto parsed = parse_roce_packet(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->opcode(), Opcode::kFetchAdd);
  EXPECT_EQ(parsed->atomic_eth->va, 0x2000u);
}

std::vector<std::uint8_t> byte_pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return v;
}

// The golden ICRC bytes below were recorded with the byte-at-a-time CRC
// over a fully copied pseudo-frame: the in-place masking must reproduce
// them to the bit.
void expect_icrc_bytes(const net::Packet& frame, std::size_t size,
                       const std::array<std::uint8_t, kIcrcBytes>& icrc) {
  ASSERT_EQ(frame.size(), size);
  std::array<std::uint8_t, kIcrcBytes> tail{};
  std::ranges::copy(frame.bytes().last(kIcrcBytes), tail.begin());
  EXPECT_EQ(tail, icrc);
  EXPECT_TRUE(parse_roce_packet(frame).has_value());
}

TEST(RocePacket, IcrcGoldenV2Write4KiB) {
  RoceMessage msg;
  msg.bth.opcode = Opcode::kRdmaWriteOnly;
  msg.bth.dest_qp = 0x12;
  msg.bth.psn = Psn(0x123456);
  msg.bth.ack_req = true;
  msg.reth = Reth{0x10000, 0x77, 4096};
  msg.payload = byte_pattern(4096);
  msg.ecn = net::Ecn::kCe;  // a masked field, set to a non-default value
  const net::Packet frame = build_roce_packet(endpoint_a(), endpoint_b(), msg);
  expect_icrc_bytes(frame, 4170, {0x46, 0x4e, 0x40, 0x14});
}

TEST(RocePacket, IcrcGoldenV2FetchAdd) {
  RoceMessage msg;
  msg.bth.opcode = Opcode::kFetchAdd;
  msg.bth.dest_qp = 0x34;
  msg.bth.psn = Psn(77);
  msg.atomic_eth = AtomicEth{0x2000, 0xbb, 5, 0};
  const net::Packet frame = build_roce_packet(endpoint_a(), endpoint_b(), msg);
  expect_icrc_bytes(frame, 86, {0x1b, 0x27, 0x0e, 0x59});
}

TEST(RocePacket, IcrcGoldenV1ReadResponse2KiB) {
  RoceMessage msg;
  msg.bth.opcode = Opcode::kRdmaReadResponseOnly;
  msg.bth.dest_qp = 0x56;
  msg.bth.psn = Psn(0xfffffe);
  msg.aeth = Aeth{AckSyndrome::kAck, 9};
  msg.payload = byte_pattern(2048);
  const net::Packet frame =
      build_roce_packet(endpoint_b(), endpoint_a(), msg, RoceVersion::kV1);
  expect_icrc_bytes(frame, 2122, {0xf2, 0xe4, 0x57, 0xfd});
}

TEST(RocePacket, IcrcRejectsFrameShorterThanHeaders) {
  // compute_icrc reads Ethernet + (IPv4 + UDP | GRH) + BTH: 54 B for v2,
  // 66 B for v1.
  const std::vector<std::uint8_t> zeros(66, 0);
  const std::span<const std::uint8_t> frame(zeros);
  EXPECT_THROW((void)compute_icrc(frame.first(20), RoceVersion::kV2),
               std::invalid_argument);
  EXPECT_THROW((void)compute_icrc(frame.first(53), RoceVersion::kV2),
               std::invalid_argument);
  EXPECT_NO_THROW((void)compute_icrc(frame.first(54), RoceVersion::kV2));
  EXPECT_THROW((void)compute_icrc(frame.first(20), RoceVersion::kV1),
               std::invalid_argument);
  EXPECT_THROW((void)compute_icrc(frame.first(65), RoceVersion::kV1),
               std::invalid_argument);
  EXPECT_NO_THROW((void)compute_icrc(frame, RoceVersion::kV1));
}

// --- The §4 overhead arithmetic the paper quotes ----------------------
TEST(Overhead, PaperSection4Numbers) {
  // "RoCEv2 protocol adds 40 bytes of headers" (IP 20 + UDP 8 + BTH 12)
  // "+ an RDMA operation-specific header of 16 (WRITE/READ)".
  EXPECT_EQ(roce_overhead_bytes(Opcode::kRdmaWriteOnly, RoceVersion::kV2),
            40u + 16u + kIcrcBytes);
  EXPECT_EQ(roce_overhead_bytes(Opcode::kRdmaReadRequest, RoceVersion::kV2),
            40u + 16u + kIcrcBytes);
  // "or 28 bytes (Fetch-and-Add)".
  EXPECT_EQ(roce_overhead_bytes(Opcode::kFetchAdd, RoceVersion::kV2),
            40u + 28u + kIcrcBytes);
  // "(52 bytes in the case of RoCEv1)" (GRH 40 + BTH 12).
  EXPECT_EQ(roce_overhead_bytes(Opcode::kRdmaWriteOnly, RoceVersion::kV1),
            52u + 16u + kIcrcBytes);
}

TEST(Overhead, MatchesActualFrames) {
  // The analytical overhead must equal measured bytes on real frames.
  RoceMessage msg;
  msg.bth.opcode = Opcode::kRdmaWriteOnly;
  msg.reth = Reth{0, 0, 1000};
  msg.payload.assign(1000, 0);
  net::Packet frame = build_roce_packet(endpoint_a(), endpoint_b(), msg);
  EXPECT_EQ(frame.size(),
            net::kEthernetHeaderBytes +
                roce_overhead_bytes(Opcode::kRdmaWriteOnly) + 1000);
}

// Property sweep: every opcode with every extension round-trips.
struct OpcodeCase {
  Opcode op;
  bool payload;
};

class OpcodeRoundTrip : public ::testing::TestWithParam<OpcodeCase> {};

TEST_P(OpcodeRoundTrip, BuildParseIdentity) {
  const auto& param = GetParam();
  RoceMessage msg;
  msg.bth.opcode = param.op;
  msg.bth.dest_qp = 0x99;
  msg.bth.psn = Psn(7);
  if (has_reth(param.op)) msg.reth = Reth{0x800, 0x33, 256};
  if (has_atomic_eth(param.op)) msg.atomic_eth = AtomicEth{0x808, 0x33, 5, 0};
  if (has_aeth(param.op)) msg.aeth = Aeth{AckSyndrome::kAck, 3};
  if (has_atomic_ack_eth(param.op)) msg.atomic_ack = AtomicAckEth{77};
  if (param.payload) msg.payload.assign(100, 0xee);

  net::Packet frame = build_roce_packet(endpoint_a(), endpoint_b(), msg);
  auto parsed = parse_roce_packet(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->opcode(), param.op);
  EXPECT_EQ(parsed->reth, msg.reth);
  EXPECT_EQ(parsed->atomic_eth, msg.atomic_eth);
  EXPECT_EQ(parsed->aeth, msg.aeth);
  EXPECT_EQ(parsed->atomic_ack, msg.atomic_ack);
  EXPECT_EQ(parsed->payload, msg.payload);
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, OpcodeRoundTrip,
    ::testing::Values(OpcodeCase{Opcode::kRdmaWriteFirst, true},
                      OpcodeCase{Opcode::kRdmaWriteMiddle, true},
                      OpcodeCase{Opcode::kRdmaWriteLast, true},
                      OpcodeCase{Opcode::kRdmaWriteOnly, true},
                      OpcodeCase{Opcode::kRdmaReadRequest, false},
                      OpcodeCase{Opcode::kCompareSwap, false},
                      OpcodeCase{Opcode::kFetchAdd, false},
                      OpcodeCase{Opcode::kRdmaReadResponseFirst, true},
                      OpcodeCase{Opcode::kRdmaReadResponseMiddle, true},
                      OpcodeCase{Opcode::kRdmaReadResponseLast, true},
                      OpcodeCase{Opcode::kRdmaReadResponseOnly, true},
                      OpcodeCase{Opcode::kAcknowledge, false},
                      OpcodeCase{Opcode::kAtomicAcknowledge, false}));

}  // namespace
}  // namespace xmem::roce
