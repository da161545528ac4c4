// Packet: copy-on-write wire bytes plus simulation metadata.
//
// Packets carry real serialized headers end to end; every component that
// wants header fields parses the bytes (and re-serializes if it mutates
// them). That discipline is what lets the benches measure true on-wire
// overheads instead of assumed ones.
//
// A packet's bytes are a ByteSlice: an offset and a length into storage
// that clones, sub-slices and parsed RoCE payloads share. clone() (the
// switch clone primitive) is a refcount bump, truncate() on a clone is a
// lazy O(1) slice, and any mutation goes through mutable_bytes(), which
// detaches a shared slice by copying only the bytes it views. The
// paper's state-store clone-and-truncate path — executed for every
// tracked packet — therefore costs two pointer copies instead of a
// 1500-byte allocation, and a frame carried inside a READ response is
// decapsulated as a slice of it, not a copy.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "net/ethernet.hpp"
#include "net/int_stack.hpp"
#include "net/ipv4.hpp"
#include "net/udp.hpp"
#include "sim/time.hpp"

namespace xmem::net {

struct PacketMeta {
  std::uint64_t id = 0;        ///< Unique per simulation, for tracing.
  sim::Time created = 0;       ///< When the packet entered the simulation.
  sim::Time enqueued = 0;      ///< Last time it was put on a queue.
  int ingress_port = -1;       ///< Port index it arrived on (per node).
  std::uint8_t priority = 0;   ///< Traffic class for queueing/PFC.
  std::uint64_t app_seq = 0;   ///< Application sequence number, if any.
  bool from_remote_buffer = false;  ///< Reinjected by the buffer primitive.
  IntStackHandle int_stack;    ///< INT hop records; null unless tagged.
};

/// A copy-on-write slice of shared byte storage: bytes [offset, offset +
/// size) of one buffer that copies and sub-slices share. Copying a slice
/// and slice() are O(1); the first mutation through a slice whose buffer
/// is shared copies out the bytes it views. Offset and
/// size are 32-bit, which keeps Packet at 80 bytes.
class ByteSlice {
 public:
  using value_type = std::uint8_t;
  using const_iterator = const std::uint8_t*;
  using iterator = const_iterator;

  ByteSlice() = default;
  /// An owned copy of `bytes`; implicit, so a message built by hand can
  /// be given a vector or a brace list.
  ByteSlice(std::span<const std::uint8_t> bytes) {
    *this = allocate(bytes.size());
    std::copy(bytes.begin(), bytes.end(), mutable_bytes().begin());
  }
  ByteSlice(const std::vector<std::uint8_t>& bytes)
      : ByteSlice(std::span<const std::uint8_t>(bytes)) {}
  ByteSlice(std::initializer_list<std::uint8_t> bytes)
      : ByteSlice(std::span<const std::uint8_t>(bytes.begin(), bytes.size())) {}

  /// `size` bytes of fresh storage with unspecified contents, for a
  /// writer to fill through mutable_bytes(): one allocation, no zero fill.
  [[nodiscard]] static ByteSlice allocate(std::size_t size) {
    assert(size <= UINT32_MAX && "ByteSlice: 32-bit size");
    ByteSlice s;
    if (size > 0) {
      s.data_ = std::make_shared_for_overwrite<std::uint8_t[]>(size);
      s.size_ = static_cast<std::uint32_t>(size);
    }
    return s;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] const std::uint8_t* data() const {
    return data_ ? data_.get() + offset_ : nullptr;
  }
  [[nodiscard]] const_iterator begin() const { return data(); }
  [[nodiscard]] const_iterator end() const { return data() + size_; }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
    return data()[i];
  }
  [[nodiscard]] std::span<const std::uint8_t> span() const {
    return {data(), size_};
  }

  /// Bytes [offset, offset + len) of this slice, sharing its storage.
  [[nodiscard]] ByteSlice slice(std::size_t offset, std::size_t len) const {
    assert(offset <= size_ && len <= size_ - offset &&
           "ByteSlice::slice out of range");
    ByteSlice s = *this;
    s.offset_ = offset_ + static_cast<std::uint32_t>(offset);
    s.size_ = static_cast<std::uint32_t>(len);
    return s;
  }

  /// Writable view of the bytes. Detaches from every slice sharing the
  /// storage first, so a mutation never bleeds into another packet. A
  /// span on purpose: the size cannot change behind the slice's back.
  [[nodiscard]] std::span<std::uint8_t> mutable_bytes() {
    ensure_unique();
    return data_ ? std::span<std::uint8_t>(data_.get() + offset_, size_)
                 : std::span<std::uint8_t>();
  }

  /// Drop all bytes past `len`. While the storage is shared this is a
  /// lazy O(1) shrink; on storage this slice owns alone it copies out the
  /// retained prefix, so a 64-byte stub does not pin a 1500-byte frame.
  void truncate(std::size_t len) {
    if (!data_ || len >= size_) return;
    if (data_.use_count() > 1) {
      size_ = static_cast<std::uint32_t>(len);  // donors keep it alive
    } else {
      *this = ByteSlice(span().first(len));
    }
  }

  /// Replace the contents with `n` owned copies of `value`.
  void assign(std::size_t n, std::uint8_t value) {
    *this = allocate(n);
    if (n > 0) std::fill_n(mutable_bytes().begin(), n, value);
  }

  friend bool operator==(const ByteSlice& a, std::span<const std::uint8_t> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  /// Make this slice the sole owner of its storage, copying only the
  /// bytes it views.
  void ensure_unique() {
    if (data_ && data_.use_count() > 1) *this = ByteSlice(span());
  }

  std::shared_ptr<std::uint8_t[]> data_;
  std::uint32_t offset_ = 0;
  std::uint32_t size_ = 0;
};

class Packet {
 public:
  Packet() = default;
  /// A packet owning a copy of `bytes`.
  explicit Packet(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}
  /// A packet over `bytes`, sharing their storage: a frame just written
  /// into ByteSlice::allocate()d storage, or one decapsulated in place.
  explicit Packet(ByteSlice bytes) : bytes_(std::move(bytes)) {}

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return bytes_.span();
  }

  /// Writable view of the bytes; detaches from any clone or slice first
  /// (ByteSlice::mutable_bytes()).
  [[nodiscard]] std::span<std::uint8_t> mutable_bytes() {
    return bytes_.mutable_bytes();
  }

  /// Bytes [offset, offset + len) of this packet as an O(1) slice sharing
  /// its storage (a RoCE payload, an encapsulated frame).
  [[nodiscard]] ByteSlice slice(std::size_t offset, std::size_t len) const {
    return bytes_.slice(offset, len);
  }

  [[nodiscard]] PacketMeta& meta() { return meta_; }
  [[nodiscard]] const PacketMeta& meta() const { return meta_; }

  /// Link occupancy of this packet (incl. FCS, padding, preamble, IFG).
  [[nodiscard]] std::int64_t wire_size() const { return wire_bytes(size()); }

  /// The switch clone operation: O(1), shares the byte storage with this
  /// packet until either side mutates.
  [[nodiscard]] Packet clone() const { return *this; }

  /// Drop all bytes past `len` (the switch truncate operation): a lazy
  /// O(1) slice while clones share the storage, otherwise a right-sized
  /// copy of the prefix (ByteSlice::truncate()).
  void truncate(std::size_t len) { bytes_.truncate(len); }

 private:
  ByteSlice bytes_;
  PacketMeta meta_;
};

/// Parsed view of the standard header stack. Parsing stops at the first
/// layer that is absent; deeper optionals stay empty.
struct ParsedPacket {
  EthernetHeader eth;
  std::optional<Ipv4Header> ipv4;
  std::optional<UdpHeader> udp;
  std::size_t l4_payload_offset = 0;  ///< Offset of bytes after UDP header.

  [[nodiscard]] bool is_roce_v2() const {
    return udp.has_value() && udp->dst_port == kRoceV2Port;
  }
};

/// Parse Ethernet (+IPv4 +UDP when present). Throws BufferError only if a
/// header that claims to be present is truncated.
[[nodiscard]] ParsedPacket parse_packet(const Packet& p);

/// Build a full Ethernet/IPv4/UDP frame around `payload`.
/// Lengths and checksums are computed; `dscp` seeds the IP ToS field.
[[nodiscard]] Packet build_udp_packet(const MacAddress& src_mac,
                                      const MacAddress& dst_mac,
                                      const Ipv4Address& src_ip,
                                      const Ipv4Address& dst_ip,
                                      std::uint16_t src_port,
                                      std::uint16_t dst_port,
                                      std::span<const std::uint8_t> payload,
                                      std::uint8_t dscp = 0);

/// Rewrite the DSCP field of an IPv4 packet in place (refreshes the IP
/// checksum). Returns false if the packet is not IPv4.
bool rewrite_dscp(Packet& p, std::uint8_t dscp);

/// Set the ECN codepoint of an IPv4 packet in place (refreshes the IP
/// checksum). Returns false if the packet is not IPv4.
bool set_ecn(Packet& p, Ecn ecn);

/// Rewrite the IPv4 destination address in place (refreshes the checksum).
/// Returns false if the packet is not IPv4.
bool rewrite_dst_ip(Packet& p, const Ipv4Address& dst);

}  // namespace xmem::net
