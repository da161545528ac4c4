// Quickstart: the whole architecture in ~80 lines.
//
// Build the paper's testbed (a ToR switch + three 40 GbE servers with
// RNICs), let the control plane set up one RDMA channel to a memory
// server, and drive each of the three remote-memory verbs straight from
// the switch data plane: WRITE, READ, and atomic Fetch-and-Add.
//
//   $ ./example_quickstart
#include <cstdio>

#include "control/testbed.hpp"
#include "core/primitive.hpp"
#include "core/rdma_channel.hpp"

using namespace xmem;

int main() {
  // 1. The testbed: one programmable ToR, hosts h0/h1 as endpoints and
  //    h2 as the memory server, all on 40 Gb/s links.
  control::Testbed tb;
  std::printf("testbed: switch '%s' with %d hosts\n", tb.tor().name().c_str(),
              tb.host_count());

  // 2. Control plane (the only CPU involvement, ever): register 1 MiB of
  //    h2's DRAM, create a queue pair, hand {QPN, rkey, base VA} to the
  //    switch.
  control::RdmaChannelConfig config = tb.controller().setup_channel(
      tb.host(2), tb.port_of(2), {.region_bytes = 1 << 20});
  std::printf("channel: rkey=0x%x base_va=0x%llx qpn=%u -> switch port %d\n",
              config.rkey, static_cast<unsigned long long>(config.base_va),
              config.remote_qpn, config.switch_port);

  // 3. The data-plane channel object the primitives are built on. A tiny
  //    capture stage plays the role of a primitive's response handler.
  core::RdmaChannel channel(tb.tor(), config);
  tb.tor().add_ingress_stage("capture", [&](switchsim::PipelineContext& ctx) {
    if (const auto* msg = core::roce_view(ctx); msg && channel.owns(*msg)) {
      if (roce::is_read_response(msg->opcode())) {
        std::printf("  <- READ response, %zu bytes: \"%.*s\"\n",
                    msg->payload.size(), static_cast<int>(msg->payload.size()),
                    reinterpret_cast<const char*>(msg->payload.data()));
      } else if (msg->opcode() == roce::Opcode::kAtomicAcknowledge) {
        std::printf("  <- Atomic ACK, original counter value = %llu\n",
                    static_cast<unsigned long long>(
                        msg->atomic_ack->original_value));
      }
      ctx.consume();
    }
  });

  // 4. Switch-crafted RDMA WRITE: put a string into server DRAM.
  const char greeting[] = "hello, remote memory";
  tb.sim().schedule_at(0, [&] {
    std::printf("switch -> RDMA WRITE %zu bytes at base_va\n",
                sizeof(greeting) - 1);
    channel.post_write(
        config.base_va,
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(greeting),
            sizeof(greeting) - 1));
  });

  // 5. Switch-crafted RDMA READ of the same bytes.
  tb.sim().schedule_at(sim::microseconds(10), [&] {
    std::printf("switch -> RDMA READ %zu bytes\n", sizeof(greeting) - 1);
    channel.post_read(config.base_va,
                      static_cast<std::uint32_t>(sizeof(greeting) - 1));
  });

  // 6. Two atomic Fetch-and-Adds on a counter at base_va + 1024.
  for (int i = 0; i < 2; ++i) {
    tb.sim().schedule_at(sim::microseconds(20 + 5 * i), [&] {
      std::printf("switch -> Fetch-and-Add(+7)\n");
      channel.post_fetch_add(config.base_va + 1024, 7);
    });
  }

  tb.sim().run();

  // 7. Verify through the control plane (reads the server's own DRAM).
  auto region = control::ChannelController::region_bytes(tb.host(2), config);
  std::printf("server DRAM now holds: \"%.*s\", counter=%llu\n",
              static_cast<int>(sizeof(greeting) - 1),
              reinterpret_cast<const char*>(region.data()),
              static_cast<unsigned long long>(
                  rnic::load_le64(region.subspan(1024, 8))));
  std::printf("server CPU packets handled: %llu (always zero)\n",
              static_cast<unsigned long long>(tb.host(2).cpu_packets()));
  return 0;
}
