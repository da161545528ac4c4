// A2 (ablation, §7) — lookup-table primitive variants.
//
// "one may recirculate the original packet locally and wait for the
// pulled entry, instead of depositing the original packet. This can save
// the bandwidth overhead to the remote memory."
//
// Head-to-head: bounce (the paper's design) vs recirculate, same
// workload. Reported: memory-link bytes per lookup (both directions),
// median latency, and the switch-side state each variant holds.
#include <cstdio>

#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/lookup_table.hpp"
#include "host/netpipe.hpp"
#include "net/flow.hpp"

using namespace xmem;

namespace {

constexpr std::uint64_t kSamples = 2000;
constexpr std::uint16_t kSrcPort = 7100;
constexpr std::uint16_t kDstPort = 9100;

struct Row {
  double req_bytes_per_lookup = 0;
  double resp_bytes_per_lookup = 0;
  double median_us = 0;
  std::uint64_t held_packets = 0;
};

Row run(core::LookupTablePrimitive::Mode mode, std::size_t frame_size) {
  control::Testbed tb;
  auto channel = tb.controller().setup_channel(tb.host(2), tb.port_of(2),
                                               {.region_bytes = 1 << 20});
  core::LookupTablePrimitive lookup(tb.tor(), channel,
                                    {.mode = mode, .entry_bytes = 1280});
  net::FiveTuple flow{tb.host(0).ip(), tb.host(1).ip(), kSrcPort, kDstPort,
                      17};
  const auto key = flow.key_bytes();
  switchsim::Action action;
  action.kind = switchsim::Action::Kind::kSetDscp;
  action.dscp = 46;
  action.port = static_cast<std::uint16_t>(tb.port_of(1));
  core::LookupTablePrimitive::install_entry(
      control::ChannelController::region_bytes(tb.host(2), channel), 1280,
      std::span<const std::uint8_t>(key.data(), key.size()), action,
      0x9e3779b97f4a7c15ULL);

  std::int64_t req_wire = 0;
  std::int64_t resp_wire = 0;
  tb.link_of(2).set_tap([&](const net::Packet& p, sim::Time, int from_end) {
    (from_end == 0 ? req_wire : resp_wire) += p.wire_size();
  });

  host::LatencyProbe probe(tb.host(0), tb.host(1),
                           {.dst_mac = tb.host(1).mac(),
                            .dst_ip = tb.host(1).ip(),
                            .src_port = kSrcPort,
                            .dst_port = kDstPort,
                            .frame_size = frame_size,
                            .samples = kSamples});
  probe.start();
  tb.sim().run();

  Row row;
  row.req_bytes_per_lookup =
      static_cast<double>(req_wire) / static_cast<double>(kSamples);
  row.resp_bytes_per_lookup =
      static_cast<double>(resp_wire) / static_cast<double>(kSamples);
  row.median_us = probe.latency_us().median();
  row.held_packets = lookup.stats().held_packets;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchResults results(argc, argv);
  bench::banner("A2 (§7 ablation)", "bounce vs recirculate lookup",
                "recirculating saves the original packet's round trip to "
                "remote memory at the cost of holding it in the switch");

  stats::TablePrinter table({"packet (B)", "variant", "req B/lookup",
                             "resp B/lookup", "median latency (us)",
                             "held pkts (max)"});
  bool recirc_saves_bandwidth = true;
  bool bounce_holds_nothing = true;
  for (const std::size_t size : {64, 512, 1024}) {
    const Row bounce = run(core::LookupTablePrimitive::Mode::kBounce, size);
    const Row recirc =
        run(core::LookupTablePrimitive::Mode::kRecirculate, size);
    table.add_row({std::to_string(size), "bounce",
                   stats::TablePrinter::num(bounce.req_bytes_per_lookup, 0),
                   stats::TablePrinter::num(bounce.resp_bytes_per_lookup, 0),
                   stats::TablePrinter::num(bounce.median_us),
                   std::to_string(bounce.held_packets)});
    table.add_row({std::to_string(size), "recirculate",
                   stats::TablePrinter::num(recirc.req_bytes_per_lookup, 0),
                   stats::TablePrinter::num(recirc.resp_bytes_per_lookup, 0),
                   stats::TablePrinter::num(recirc.median_us),
                   std::to_string(recirc.held_packets)});
    recirc_saves_bandwidth &=
        recirc.req_bytes_per_lookup < bounce.req_bytes_per_lookup / 2 &&
        recirc.resp_bytes_per_lookup < bounce.resp_bytes_per_lookup;
    bounce_holds_nothing &=
        bounce.held_packets == 0 && recirc.held_packets > 0;
  }
  table.print("A2: remote-memory bandwidth and latency per lookup");

  results.verdict(recirc_saves_bandwidth,
                  "recirculate cuts memory-link traffic (no packet deposit, "
                  "action-only READ)");
  results.verdict(bounce_holds_nothing,
                  "bounce holds zero per-packet switch state; recirculate "
                  "must hold the originals");
  return results.finish();
}
