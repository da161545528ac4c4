// A3 (ablation, §7) — RDMA packet drops and the reliability extension.
//
// "in the store-state primitive, an RDMA packet drop would affect the
// accuracy of the state on the remote store. ... one can implement
// parsing and handling of RDMA ACKs/NACKs to make certain remote memory
// reliable, e.g., in the remote counter case."
//
// Sweep loss on the memory link; compare counter accuracy without and
// with the ACK/NAK + retransmit + replay-cache machinery, and show the
// packet-buffer primitive's best-effort vs reliable-load behaviour.
#include <cstdio>

#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/packet_buffer.hpp"
#include "core/state_store.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"

using namespace xmem;

namespace {

constexpr std::uint64_t kPackets = 5000;

double counter_accuracy(double loss, bool reliable) {
  control::Testbed tb;
  control::ChannelController::ChannelSpec spec;
  spec.region_bytes = 4096;
  spec.tolerate_psn_gaps = !reliable;  // strict RC when recovering
  auto channel = tb.controller().setup_channel(tb.host(2), tb.port_of(2), spec);
  core::StateStorePrimitive store(
      tb.tor(), channel,
      {.reliable = reliable, .retransmit_timeout = sim::microseconds(200)});
  if (loss > 0) tb.link_of(2).set_loss_rate(loss, 17);

  host::PacketSink sink(tb.host(1));
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                       .dst_ip = tb.host(1).ip(),
                                       .frame_size = 128,
                                       .rate = sim::gbps(10),
                                       .packet_limit = kPackets});
  gen.start();
  tb.sim().run();
  for (int i = 0; i < 100 && !store.quiescent(); ++i) {
    store.flush();
    tb.sim().run_until(tb.sim().now() + sim::milliseconds(1));
    tb.sim().run();
  }

  auto region = control::ChannelController::region_bytes(tb.host(2), channel);
  std::uint64_t counted = 0;
  for (std::size_t i = 0; i + 8 <= region.size(); i += 8) {
    counted += rnic::load_le64(region.subspan(i, 8));
  }
  return 100.0 * static_cast<double>(counted) / kPackets;
}

struct BufferRow {
  double delivered_pct = 0;
  std::uint64_t retries = 0;
};

BufferRow buffer_under_loss(double loss, bool reliable) {
  control::Testbed::Config cfg;
  cfg.hosts = 4;
  control::Testbed tb(cfg);
  auto channel = tb.controller().setup_channel(
      tb.host(3), tb.port_of(3),
      {.region_bytes = 8 * static_cast<std::size_t>(sim::kMiB)});
  core::PacketBufferPrimitive pb(tb.tor(), channel,
                                 {.watch_port = tb.port_of(2),
                                  .divert_threshold_bytes = 0,
                                  .resume_threshold_bytes = 20 * 1500,
                                  .reliable_loads = reliable,
                                  .read_timeout = sim::microseconds(500)});
  // Loss only on READ responses: recoverable information.
  if (loss > 0) tb.link_of(3).set_loss_rate(loss, 19, /*direction=*/1);

  host::PacketSink sink(tb.host(2));
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(2).mac(),
                                       .dst_ip = tb.host(2).ip(),
                                       .frame_size = 1500,
                                       .rate = sim::gbps(20),
                                       .packet_limit = 2000});
  gen.start();
  tb.sim().run();
  return {100.0 * static_cast<double>(sink.packets()) / 2000.0,
          pb.stats().read_retries};
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchResults results(argc, argv);
  bench::banner("A3 (§7 ablation)", "loss on the RDMA channel",
                "drops cost state accuracy; ACK/NAK handling makes the "
                "remote counter reliable");

  stats::TablePrinter counters({"loss rate", "best-effort accuracy",
                                "reliable accuracy"});
  bool besteffort_degrades = false;
  bool reliable_exact = true;
  for (const double loss : {0.0, 0.001, 0.005, 0.01, 0.02}) {
    const double best_effort = counter_accuracy(loss, false);
    const double reliable = counter_accuracy(loss, true);
    if (loss >= 0.005 && best_effort < 99.9) besteffort_degrades = true;
    reliable_exact &= reliable > 99.999;
    char label[32];
    std::snprintf(label, sizeof(label), "%.1f%%", loss * 100);
    counters.add_row({label,
                      stats::TablePrinter::num(best_effort, 3) + "%",
                      stats::TablePrinter::num(reliable, 3) + "%"});
  }
  counters.print("A3-a: remote counter accuracy vs RDMA loss");

  stats::TablePrinter buffer({"loss rate", "mode", "delivered", "re-reads"});
  for (const double loss : {0.005, 0.02}) {
    const BufferRow besteffort = buffer_under_loss(loss, false);
    const BufferRow reliable = buffer_under_loss(loss, true);
    char label[32];
    std::snprintf(label, sizeof(label), "%.1f%%", loss * 100);
    buffer.add_row({label, "best-effort",
                    stats::TablePrinter::num(besteffort.delivered_pct) + "%",
                    std::to_string(besteffort.retries)});
    buffer.add_row({label, "reliable loads",
                    stats::TablePrinter::num(reliable.delivered_pct) + "%",
                    std::to_string(reliable.retries)});
  }
  buffer.print("A3-b: packet buffer under READ-response loss");

  results.verdict(besteffort_degrades,
                  "without reliability, loss shows up as counting error "
                  "(the paper's §7 concern)");
  results.verdict(reliable_exact,
                  "with ACK/NAK handling + replay cache, counts stay exact "
                  "at every loss rate");
  return results.finish();
}
