#include "net/ipv4.hpp"

#include "net/checksum.hpp"

namespace xmem::net {

void Ipv4Header::serialize(ByteWriter& w) const {
  const std::size_t start = w.size();
  w.u8(0x45);  // version 4, IHL 5 (no options)
  w.u8(static_cast<std::uint8_t>((dscp << 2) |
                                 static_cast<std::uint8_t>(ecn)));
  w.u16(total_length);
  w.u16(identification);
  w.u16(0x4000);  // flags: DF set, fragment offset 0
  w.u8(ttl);
  w.u8(protocol);
  w.u16(0);  // checksum, patched below
  w.u32(src.value());
  w.u32(dst.value());
  // One pass over the 20 bytes just written, checksum field zero.
  w.patch_u16(start + 10, internet_checksum(w.written().subspan(
                              start, kIpv4HeaderBytes)));
}

Ipv4Header Ipv4Header::parse(ByteReader& r) {
  // Keep the raw header bytes for checksum verification.
  const auto raw = r.rest();
  const std::uint8_t ver_ihl = r.u8();
  if ((ver_ihl >> 4) != 4) {
    throw BufferError("Ipv4Header: not IPv4");
  }
  const std::size_t ihl_bytes = static_cast<std::size_t>(ver_ihl & 0x0f) * 4;
  if (ihl_bytes != kIpv4HeaderBytes) {
    throw BufferError("Ipv4Header: options unsupported");
  }
  if (raw.size() < kIpv4HeaderBytes) {
    throw BufferError("Ipv4Header: truncated");
  }
  if (internet_checksum(raw.first(kIpv4HeaderBytes)) != 0) {
    throw BufferError("Ipv4Header: bad checksum");
  }
  Ipv4Header h;
  const std::uint8_t tos = r.u8();
  h.dscp = tos >> 2;
  h.ecn = static_cast<Ecn>(tos & 0x3);
  h.total_length = r.u16();
  h.identification = r.u16();
  r.u16();  // flags/fragment (always DF here)
  h.ttl = r.u8();
  h.protocol = r.u8();
  h.checksum = r.u16();
  h.src = Ipv4Address(r.u32());
  h.dst = Ipv4Address(r.u32());
  return h;
}

}  // namespace xmem::net
