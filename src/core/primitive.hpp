// Shared plumbing for the three remote-memory primitives.
#pragma once

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

}  // namespace xmem::core
