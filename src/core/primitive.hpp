// Shared plumbing for the three remote-memory primitives.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "net/bytes.hpp"
#include "net/packet.hpp"
#include "roce/packet.hpp"
#include "switchsim/pipeline.hpp"

namespace xmem::core {

/// The switch parser's RoCEv2 message for the packet in `ctx` (ICRC
/// verified), or nullptr for a frame that is not RoCEv2. Stages read it
/// in place: nothing is parsed or copied here.
[[nodiscard]] inline const roce::RoceMessage* roce_view(
    const switchsim::PipelineContext& ctx) {
  return ctx.roce ? &*ctx.roce : nullptr;
}

/// A [u32 len][frame] record, the layout of a packet-buffer ring entry and
/// of a lookup-table bounce deposit, as a WRITE payload: the length word
/// here, the frame where it already lies. Must outlive the post.
class FramedEntry {
 public:
  explicit FramedEntry(std::span<const std::uint8_t> frame) : frame_(frame) {
    net::ByteWriter(std::span<std::uint8_t>(len_))
        .u32(static_cast<std::uint32_t>(frame.size()));
  }
  [[nodiscard]] roce::Gather gather() const { return {len_, frame_}; }

 private:
  std::array<std::uint8_t, 4> len_{};
  std::span<const std::uint8_t> frame_;
};

/// The frame of the [u32 len][frame] record at `offset` in `payload` (a
/// READ response's), as a packet sharing the response's bytes: nothing
/// is copied. Throws net::BufferError if the record runs past the end.
[[nodiscard]] inline net::Packet unframe(const net::ByteSlice& payload,
                                         std::size_t offset) {
  net::ByteReader r(payload.span());
  r.skip(offset);
  const std::uint32_t len = r.u32();
  r.skip(len);
  return net::Packet(payload.slice(offset + 4, len));
}

}  // namespace xmem::core
