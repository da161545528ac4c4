// Shared plumbing for the three remote-memory primitives.
#pragma once

#include <optional>

#include "roce/packet.hpp"
#include "switchsim/pipeline.hpp"

namespace xmem::core {

/// Parse the packet in `ctx` as RoCE, cheaply rejecting non-RoCE frames
/// first. ChannelSet::intercept() calls this at the top of every
/// primitive's stage; stages that drive a channel directly call it
/// themselves to recognize responses from their memory server.
[[nodiscard]] inline std::optional<roce::RoceMessage> roce_view(
    const switchsim::PipelineContext& ctx) {
  if (!ctx.headers || !ctx.headers->is_roce_v2()) return std::nullopt;
  return roce::parse_roce_packet(ctx.packet);
}

}  // namespace xmem::core
