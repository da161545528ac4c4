// Unit tests for the wire-format substrate: byte codecs, checksums,
// addresses, header round trips, packet build/parse/rewrite and flow
// keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "net/address.hpp"
#include "net/bytes.hpp"
#include "net/checksum.hpp"
#include "net/ethernet.hpp"
#include "net/flow.hpp"
#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "net/udp.hpp"
#include "sim/rng.hpp"

namespace xmem::net {
namespace {

TEST(Bytes, WriterRoundTrip) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u8(0xab);
  w.u16(0x1234);
  w.u24(0x56789a);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u24(), 0x56789au);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, BigEndianOnWire) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u16(0x0102);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
}

TEST(Bytes, ReaderUnderrunThrows) {
  std::vector<std::uint8_t> buf{1, 2};
  ByteReader r(buf);
  r.u16();
  EXPECT_THROW(r.u8(), BufferError);
}

TEST(Bytes, PatchU16) {
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  w.u16(0);
  w.u16(0xffff);
  w.patch_u16(0, 0xbeef);
  ByteReader r(buf);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_THROW(w.patch_u16(3, 1), BufferError);
}

TEST(Bytes, SpanWriterFillsInPlaceAndRefusesOverflow) {
  std::array<std::uint8_t, 7> buf{};
  ByteWriter w{std::span<std::uint8_t>(buf)};
  w.u16(0x0102);
  w.u32(0x03040506);
  EXPECT_EQ(w.size(), 6u);
  EXPECT_EQ(w.written().size(), 6u);
  w.patch_u16(0, 0xbeef);
  EXPECT_THROW(w.u16(1), BufferError) << "one byte left";
  w.u8(0x07);
  EXPECT_EQ(buf, (std::array<std::uint8_t, 7>{0xbe, 0xef, 3, 4, 5, 6, 7}));
}

TEST(Bytes, SkipAndRest) {
  std::vector<std::uint8_t> buf{1, 2, 3, 4, 5};
  ByteReader r(buf);
  r.skip(2);
  EXPECT_EQ(r.rest().size(), 3u);
  EXPECT_EQ(r.u8(), 3);
  EXPECT_THROW(r.skip(10), BufferError);
}

TEST(Checksum, Rfc1071Example) {
  // Classic RFC 1071 worked example.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  // Sum = 0001 + f203 + f4f5 + f6f7 = 2ddf0 -> folded ddf2 -> ~ = 220d.
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::uint8_t data[] = {0x12, 0x34, 0x56};
  // Words: 1234, 5600. Sum 682a... -> checksum = ~0x682a.
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0x6834u));
}

TEST(Crc32, KnownVectors) {
  // CRC32("123456789") = 0xCBF43926 (the canonical check value).
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(digits), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, SeedChaining) {
  const std::uint8_t all[] = {'a', 'b', 'c', 'd'};
  const std::uint32_t whole = crc32(all);
  const std::uint32_t part1 = crc32(std::span<const std::uint8_t>(all, 2));
  const std::uint32_t chained =
      crc32(std::span<const std::uint8_t>(all + 2, 2), part1);
  EXPECT_EQ(chained, whole);
}

// The byte-at-a-time loop crc32() ran before it gained its slicing-by-8
// and carry-less-multiply kernels: the reference every kernel must match.
constexpr std::array<std::uint32_t, 256> kReferenceCrcTable = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}();

std::uint32_t crc32_reference(std::span<const std::uint8_t> data,
                              std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xffffffffu;
  for (const std::uint8_t byte : data) {
    c = kReferenceCrcTable[(c ^ byte) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

using Crc32Kernel = std::uint32_t (*)(std::span<const std::uint8_t>,
                                      std::uint32_t);

// Checks `kernel` against the reference at every length from 0 to 4,200 B
// (past one 4 KiB WRITE frame), at every start offset modulo 16, with a
// zero and a non-zero seed; then chains two calls split at every point of
// a few lengths.
void expect_matches_reference(Crc32Kernel kernel) {
  std::vector<std::uint8_t> buf(4200 + 16);
  sim::Rng rng(7);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 4200; ++len) {
      for (const std::uint32_t seed : {0u, 0x9e3779b9u}) {
        const auto data = all.subspan(offset, len);
        ASSERT_EQ(kernel(data, seed), crc32_reference(data, seed))
            << "offset " << offset << " len " << len << " seed " << seed;
      }
    }
  }
  for (const std::size_t len : {63u, 64u, 200u, 1500u, 4170u}) {
    const auto data = all.subspan(3, len);
    const std::uint32_t whole = crc32_reference(data, 0);
    for (std::size_t split = 0; split <= len; ++split) {
      const std::uint32_t head = kernel(data.first(split), 0);
      ASSERT_EQ(kernel(data.subspan(split), head), whole)
          << "len " << len << " split " << split;
    }
  }
}

TEST(Crc32, SlicingKernelMatchesReference) {
  expect_matches_reference(detail::crc32_slicing8);
}

TEST(Crc32, ClmulKernelMatchesReference) {
#if defined(__x86_64__)
  if (!detail::crc32_clmul_supported()) {
    GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1";
  }
  expect_matches_reference(detail::crc32_clmul);
#else
  EXPECT_FALSE(detail::crc32_clmul_supported());
  GTEST_SKIP() << "the carry-less-multiply kernel is x86-64 only";
#endif
}

TEST(Crc32, DispatchedMatchesReference) { expect_matches_reference(crc32); }

TEST(Address, MacParseFormat) {
  const MacAddress mac = MacAddress::parse("02:58:4d:00:00:2a");
  EXPECT_EQ(mac.to_string(), "02:58:4d:00:00:2a");
  EXPECT_EQ(mac, MacAddress::from_index(42));
  EXPECT_THROW(MacAddress::parse("nonsense"), std::invalid_argument);
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
}

TEST(Address, Ipv4ParseFormat) {
  const Ipv4Address ip = Ipv4Address::parse("10.0.1.44");
  EXPECT_EQ(ip.to_string(), "10.0.1.44");
  EXPECT_EQ(ip, Ipv4Address(10, 0, 1, 44));
  EXPECT_EQ(Ipv4Address::from_index(300), Ipv4Address(10, 0, 1, 44));
  EXPECT_THROW(Ipv4Address::parse("1.2.3.999"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1.2.3"), std::invalid_argument);
}

TEST(Ethernet, HeaderRoundTrip) {
  EthernetHeader h;
  h.dst = MacAddress::from_index(1);
  h.src = MacAddress::from_index(2);
  h.set_type(EtherType::kIpv4);
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kEthernetHeaderBytes);
  ByteReader r(buf);
  EXPECT_EQ(EthernetHeader::parse(r), h);
}

TEST(Ethernet, WireBytesIncludesOverheadAndPadding) {
  // 60-byte minimum + 4 FCS + 20 preamble/IFG.
  EXPECT_EQ(wire_bytes(10), 84);
  EXPECT_EQ(wire_bytes(60), 84);
  EXPECT_EQ(wire_bytes(1514), 1514 + 4 + 20);
}

TEST(Ipv4, HeaderRoundTripAndChecksum) {
  Ipv4Header h;
  h.dscp = 46;
  h.ecn = Ecn::kEct0;
  h.total_length = 100;
  h.identification = 7;
  h.ttl = 17;
  h.protocol = static_cast<std::uint8_t>(IpProto::kUdp);
  h.src = Ipv4Address(10, 0, 0, 1);
  h.dst = Ipv4Address(10, 0, 0, 2);

  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kIpv4HeaderBytes);
  // A correct header checksums to zero.
  EXPECT_EQ(internet_checksum(buf), 0);

  ByteReader r(buf);
  const Ipv4Header parsed = Ipv4Header::parse(r);
  EXPECT_EQ(parsed.dscp, h.dscp);
  EXPECT_EQ(parsed.ecn, h.ecn);
  EXPECT_EQ(parsed.total_length, h.total_length);
  EXPECT_EQ(parsed.src, h.src);
  EXPECT_EQ(parsed.dst, h.dst);
}

TEST(Ipv4, CorruptChecksumRejected) {
  Ipv4Header h;
  h.total_length = 40;
  h.src = Ipv4Address(1, 2, 3, 4);
  h.dst = Ipv4Address(5, 6, 7, 8);
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.serialize(w);
  buf[4] ^= 0xff;  // corrupt identification
  ByteReader r(buf);
  EXPECT_THROW(Ipv4Header::parse(r), BufferError);
}

TEST(Udp, HeaderRoundTrip) {
  UdpHeader h{1234, kRoceV2Port, 50, 0};
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kUdpHeaderBytes);
  ByteReader r(buf);
  EXPECT_EQ(UdpHeader::parse(r), h);
}

TEST(Packet, BuildAndParseUdp) {
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 111, 222, payload);
  EXPECT_EQ(p.size(), 14 + 20 + 8 + 5u);

  const ParsedPacket parsed = parse_packet(p);
  ASSERT_TRUE(parsed.ipv4.has_value());
  ASSERT_TRUE(parsed.udp.has_value());
  EXPECT_EQ(parsed.udp->src_port, 111);
  EXPECT_EQ(parsed.udp->dst_port, 222);
  EXPECT_EQ(parsed.ipv4->src, Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(parsed.l4_payload_offset, 42u);
  EXPECT_FALSE(parsed.is_roce_v2());
}

TEST(Packet, RoceV2PortDetection) {
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 111, kRoceV2Port, {});
  EXPECT_TRUE(parse_packet(p).is_roce_v2());
}

TEST(Packet, CloneIsDeep) {
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 1, 2, {});
  Packet c = p.clone();
  c.mutable_bytes()[0] ^= 0xff;
  EXPECT_NE(c.bytes()[0], p.bytes()[0]);
}

TEST(Packet, TruncateShrinksOnly) {
  Packet p(std::vector<std::uint8_t>(100, 7));
  p.truncate(200);
  EXPECT_EQ(p.size(), 100u);
  p.truncate(10);
  EXPECT_EQ(p.size(), 10u);
}

TEST(Packet, CloneSharesStorageUntilMutation) {
  Packet p(std::vector<std::uint8_t>(1500, 0x5a));
  Packet c = p.clone();
  EXPECT_EQ(c.bytes().data(), p.bytes().data());  // refcount bump, no copy
  c.mutable_bytes()[0] = 0x11;
  EXPECT_NE(c.bytes().data(), p.bytes().data());  // CoW detached
  EXPECT_EQ(p.bytes()[0], 0x5a);
}

// The state-store regression: a clone truncated to a header stub must keep
// exactly the retained prefix, and the donor packet must stay bit-identical
// through the clone, the truncate, and a later mutation of the stub.
TEST(Packet, TruncatedCloneKeepsPrefixAndDonorIntact) {
  std::vector<std::uint8_t> original(1500);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  Packet p(original);

  Packet stub = p.clone();
  stub.truncate(64);
  ASSERT_EQ(stub.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(stub.bytes()[i], original[i]) << "stub byte " << i;
  }

  stub.mutable_bytes()[0] ^= 0xff;
  ASSERT_EQ(p.size(), original.size());
  EXPECT_TRUE(std::equal(p.bytes().begin(), p.bytes().end(),
                         original.begin()));
}

// Truncating uniquely-owned storage must materialize the prefix rather
// than resize in place, so a 64 B stub does not pin the 1500 B buffer.
TEST(Packet, TruncateOnUniqueStorageMaterializes) {
  Packet p(std::vector<std::uint8_t>(1500, 0x5a));
  const std::uint8_t* before = p.bytes().data();
  p.truncate(64);
  EXPECT_EQ(p.size(), 64u);
  EXPECT_NE(p.bytes().data(), before);  // fresh, right-sized allocation
}

TEST(Packet, LazySliceDetachesOnMutationAfterDonorDies) {
  Packet stub;
  {
    Packet donor(std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6, 7, 8});
    stub = donor.clone();
    stub.truncate(4);  // lazy slice while donor is alive
  }
  // The stub owns the storage alone now: it writes in place, still [0, 4).
  const auto view = stub.mutable_bytes();
  ASSERT_EQ(view.size(), 4u);
  EXPECT_EQ(view[3], 4);
  EXPECT_EQ(stub.bytes().size(), 4u);
}

// A frame carried inside another (a READ response's payload) is
// decapsulated as a slice of the carrier's storage.
Packet carrier_of(const Packet& inner, std::size_t header_bytes) {
  std::vector<std::uint8_t> bytes(header_bytes, 0xcc);
  bytes.insert(bytes.end(), inner.bytes().begin(), inner.bytes().end());
  bytes.insert(bytes.end(), 4, 0xdd);  // a trailer, like an ICRC
  return Packet(bytes);
}

Packet ect_udp_frame() {
  const std::vector<std::uint8_t> payload(100, 0x42);
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 1, 2, payload);
  set_ecn(p, Ecn::kEct0);
  return p;
}

TEST(Packet, SubSliceReadsTheRightBytes) {
  std::vector<std::uint8_t> original(300);
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const Packet p(original);
  const ByteSlice s = p.slice(10, 200);
  ASSERT_EQ(s.size(), 200u);
  EXPECT_EQ(s.data(), p.bytes().data() + 10) << "O(1): shares storage";
  EXPECT_TRUE(std::equal(s.begin(), s.end(), original.begin() + 10));
  const ByteSlice inner = s.slice(5, 3);  // a slice of a slice
  EXPECT_EQ(inner, (std::vector<std::uint8_t>{original[15], original[16],
                                              original[17]}));
  const Packet q(s.slice(0, 0));
  EXPECT_EQ(q.size(), 0u);
}

TEST(Packet, MutatingDecapsulatedSliceLeavesCarrierAndClonesIntact) {
  const Packet inner = ect_udp_frame();
  const Packet carrier = carrier_of(inner, 12);
  const Packet carrier_clone = carrier.clone();
  const std::vector<std::uint8_t> before(carrier.bytes().begin(),
                                         carrier.bytes().end());

  Packet decap(carrier.slice(12, inner.size()));
  ASSERT_EQ(decap.bytes().data(), carrier.bytes().data() + 12);
  ASSERT_TRUE(std::equal(decap.bytes().begin(), decap.bytes().end(),
                         inner.bytes().begin(), inner.bytes().end()));
  ASSERT_TRUE(set_ecn(decap, Ecn::kCe));
  decap.mutable_bytes()[0] ^= 0xff;

  EXPECT_EQ(parse_packet(decap).ipv4->ecn, Ecn::kCe);  // checksum valid
  EXPECT_EQ(decap.size(), inner.size());
  EXPECT_NE(decap.bytes().data(), carrier.bytes().data() + 12)
      << "detached before writing";
  for (const Packet* p : {&carrier, &carrier_clone}) {
    EXPECT_TRUE(
        std::equal(p->bytes().begin(), p->bytes().end(), before.begin(),
                   before.end()));
  }
}

TEST(Packet, TruncateAndCloneActOnSliceAsOnWholePacket) {
  const Packet inner = ect_udp_frame();
  std::optional<Packet> carrier = carrier_of(inner, 12);
  Packet decap(carrier->slice(12, inner.size()));

  // While the carrier shares the storage: clone is a refcount bump and
  // truncate a lazy shrink, both reading the slice's own bytes.
  Packet stub = decap.clone();
  EXPECT_EQ(stub.bytes().data(), decap.bytes().data());
  stub.truncate(20);
  EXPECT_EQ(stub.size(), 20u);
  EXPECT_EQ(stub.bytes().data(), decap.bytes().data());
  EXPECT_TRUE(std::equal(stub.bytes().begin(), stub.bytes().end(),
                         inner.bytes().begin()));

  // Once the slice owns the storage alone, truncate materializes the
  // retained prefix, as on a whole packet.
  carrier.reset();
  stub = Packet{};
  const std::uint8_t* shared = decap.bytes().data();
  decap.truncate(30);
  EXPECT_EQ(decap.size(), 30u);
  EXPECT_NE(decap.bytes().data(), shared);
  EXPECT_TRUE(std::equal(decap.bytes().begin(), decap.bytes().end(),
                         inner.bytes().begin()));
  decap.truncate(40);
  EXPECT_EQ(decap.size(), 30u) << "truncate only shrinks";
}

TEST(Packet, RewriteDscpKeepsChecksumValid) {
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 1, 2, {});
  ASSERT_TRUE(rewrite_dscp(p, 46));
  const ParsedPacket parsed = parse_packet(p);  // throws on bad checksum
  ASSERT_TRUE(parsed.ipv4.has_value());
  EXPECT_EQ(parsed.ipv4->dscp, 46);
}

TEST(Packet, RewriteDstIpKeepsChecksumValid) {
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 1, 2, {});
  ASSERT_TRUE(rewrite_dst_ip(p, Ipv4Address(192, 168, 9, 9)));
  const ParsedPacket parsed = parse_packet(p);
  EXPECT_EQ(parsed.ipv4->dst, Ipv4Address(192, 168, 9, 9));
}

TEST(Packet, RewriteRejectsNonIpv4) {
  Packet p(std::vector<std::uint8_t>(60, 0));
  EXPECT_FALSE(rewrite_dscp(p, 1));
  EXPECT_FALSE(rewrite_dst_ip(p, Ipv4Address(1, 1, 1, 1)));
}

TEST(Flow, ExtractFiveTuple) {
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 1111, 2222, {});
  const auto tuple = extract_five_tuple(p);
  ASSERT_TRUE(tuple.has_value());
  EXPECT_EQ(tuple->src_ip, Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(tuple->dst_ip, Ipv4Address(10, 0, 0, 2));
  EXPECT_EQ(tuple->src_port, 1111);
  EXPECT_EQ(tuple->dst_port, 2222);
  EXPECT_EQ(tuple->protocol, 17);
}

TEST(Flow, NonIpv4HasNoTuple) {
  Packet p(std::vector<std::uint8_t>(60, 0));
  EXPECT_FALSE(extract_five_tuple(p).has_value());
}

TEST(Flow, HashIsStableAndKeyed) {
  FiveTuple t{Ipv4Address(1, 2, 3, 4), Ipv4Address(5, 6, 7, 8), 9, 10, 17};
  EXPECT_EQ(flow_hash(t), flow_hash(t));
  EXPECT_NE(flow_hash(t, 1), flow_hash(t, 2));
  FiveTuple u = t;
  u.src_port = 11;
  EXPECT_NE(flow_hash(t), flow_hash(u));
}

TEST(Flow, PacketHashMatchesTupleHash) {
  // packet_flow_hash folds straight off the frame bytes; it must agree
  // with extract-then-hash for every seed, or per-flow INT accounting
  // would key differently than the rest of the repo.
  Packet p = build_udp_packet(MacAddress::from_index(1),
                              MacAddress::from_index(2),
                              Ipv4Address(10, 0, 0, 1),
                              Ipv4Address(10, 0, 0, 2), 1111, 2222, {});
  const auto tuple = extract_five_tuple(p);
  ASSERT_TRUE(tuple.has_value());
  const auto direct = packet_flow_hash(p);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(*direct, flow_hash(*tuple));
  EXPECT_EQ(packet_flow_hash(p, 99).value(), flow_hash(*tuple, 99));

  // Non-IPv4 frames are unclassifiable either way.
  Packet raw(std::vector<std::uint8_t>(60, 0));
  EXPECT_FALSE(packet_flow_hash(raw).has_value());
}

}  // namespace
}  // namespace xmem::net
