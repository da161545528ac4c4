#include "net/pause.hpp"

#include "net/bytes.hpp"

namespace xmem::net {

namespace {
// MAC control frames go to a reserved multicast address.
const MacAddress kPauseDst({0x01, 0x80, 0xc2, 0x00, 0x00, 0x01});
}  // namespace

PfcFrame pfc_xoff(const MacAddress& src, int priority) {
  PfcFrame f;
  f.src = src;
  f.class_enable = static_cast<std::uint8_t>(1u << (priority & 7));
  f.quanta[priority & 7] = 0xffff;
  return f;
}

PfcFrame pfc_xon(const MacAddress& src, int priority) {
  PfcFrame f;
  f.src = src;
  f.class_enable = static_cast<std::uint8_t>(1u << (priority & 7));
  f.quanta[priority & 7] = 0;
  return f;
}

Packet build_pfc_frame(const PfcFrame& pfc) {
  ByteSlice frame = ByteSlice::allocate(kEthernetMinFrame);
  ByteWriter w(frame.mutable_bytes());
  EthernetHeader eth;
  eth.dst = kPauseDst;
  eth.src = pfc.src;
  eth.set_type(EtherType::kFlowControl);
  eth.serialize(w);
  w.u16(kMacControlOpcodePfc);
  w.u16(pfc.class_enable);
  for (int i = 0; i < 8; ++i) w.u16(pfc.quanta[i]);
  // Pad to the 60-byte Ethernet minimum.
  w.zeros(kEthernetMinFrame - w.size());
  return Packet(std::move(frame));
}

std::optional<PfcFrame> parse_pfc_frame(const Packet& packet) {
  if (packet.size() < kEthernetHeaderBytes + 2 + 2 + 16) return std::nullopt;
  // Almost every frame a host receives is not MAC control: read the
  // EtherType in place before parsing (and copying) the whole header.
  const auto bytes = packet.bytes();
  const auto ether_type = static_cast<std::uint16_t>(
      (bytes[kEthernetHeaderBytes - 2] << 8) | bytes[kEthernetHeaderBytes - 1]);
  if (ether_type != static_cast<std::uint16_t>(EtherType::kFlowControl)) {
    return std::nullopt;
  }
  try {
    ByteReader r(bytes);
    const EthernetHeader eth = EthernetHeader::parse(r);
    if (r.u16() != kMacControlOpcodePfc) return std::nullopt;
    PfcFrame f;
    f.src = eth.src;
    f.class_enable = static_cast<std::uint8_t>(r.u16());
    for (int i = 0; i < 8; ++i) f.quanta[i] = r.u16();
    return f;
  } catch (const BufferError&) {
    return std::nullopt;
  }
}

}  // namespace xmem::net
