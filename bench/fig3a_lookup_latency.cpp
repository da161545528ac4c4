// Figure 3a — "Latency overhead of lookup table primitive".
//
// NPtcp-style median end-to-end latency for packet sizes 64..1024 B:
//   baseline  = plain L2 switching through the ToR,
//   primitive = every packet fetches its action entry from the remote
//               table (DSCP rewrite, as in the paper) before forwarding.
// The paper's claim: "it only adds 1-2 us latency on average".
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/lookup_table.hpp"
#include "host/netpipe.hpp"
#include "net/flow.hpp"

using namespace xmem;

namespace {

constexpr std::uint16_t kSrcPort = 7100;
constexpr std::uint16_t kDstPort = 9100;
constexpr std::uint64_t kSamples = 500;

double baseline_median_us(std::size_t frame_size) {
  control::Testbed tb;
  host::LatencyProbe probe(tb.host(0), tb.host(1),
                           {.dst_mac = tb.host(1).mac(),
                            .dst_ip = tb.host(1).ip(),
                            .src_port = kSrcPort,
                            .dst_port = kDstPort,
                            .frame_size = frame_size,
                            .samples = kSamples});
  probe.start();
  tb.sim().run();
  return probe.latency_us().median();
}

double primitive_median_us(std::size_t frame_size) {
  control::Testbed tb;
  // h2 hosts the remote table. Entries are sized to hold the probe
  // packets of this experiment (<= 1024 B frames).
  auto channel = tb.controller().setup_channel(tb.host(2), tb.port_of(2),
                                               {.region_bytes = 1 << 20});
  core::LookupTablePrimitive lookup(tb.tor(), channel,
                                    {.entry_bytes = 1280});

  // Install the probe flow's entry: rewrite DSCP to 46 and forward to h1
  // — the paper's "custom action that modifies the DSCP field".
  net::FiveTuple flow{tb.host(0).ip(), tb.host(1).ip(), kSrcPort, kDstPort,
                      17};
  const auto key_bytes = flow.key_bytes();
  switchsim::Action action;
  action.kind = switchsim::Action::Kind::kSetDscp;
  action.dscp = 46;
  action.port = static_cast<std::uint16_t>(tb.port_of(1));
  core::LookupTablePrimitive::install_entry(
      control::ChannelController::region_bytes(tb.host(2), channel), 1280,
      std::span<const std::uint8_t>(key_bytes.data(), key_bytes.size()),
      action, 0x9e3779b97f4a7c15ULL);

  host::LatencyProbe probe(tb.host(0), tb.host(1),
                           {.dst_mac = tb.host(1).mac(),
                            .dst_ip = tb.host(1).ip(),
                            .src_port = kSrcPort,
                            .dst_port = kDstPort,
                            .frame_size = frame_size,
                            .samples = kSamples});
  probe.start();
  tb.sim().run();
  if (lookup.stats().remote_lookups != kSamples) {
    std::fprintf(stderr, "unexpected lookup count %llu\n",
                 static_cast<unsigned long long>(lookup.stats().remote_lookups));
  }
  return probe.latency_us().median();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchResults results(argc, argv);
  bench::banner("Fig. 3a", "lookup-table primitive latency overhead",
                "the primitive adds only 1-2 us over an L2-switch baseline "
                "across 64-1024 B packets");

  stats::TablePrinter table(
      {"packet size (B)", "baseline (us)", "lookup primitive (us)",
       "overhead (us)"});
  bool all_in_band = true;
  double min_overhead = 1e9;
  double max_overhead = 0;
  for (const std::size_t size : {64, 128, 256, 512, 1024}) {
    const double base = baseline_median_us(size);
    const double prim = primitive_median_us(size);
    const double overhead = prim - base;
    min_overhead = std::min(min_overhead, overhead);
    max_overhead = std::max(max_overhead, overhead);
    all_in_band &= overhead >= 0.5 && overhead <= 3.0;
    table.add_row({std::to_string(size), stats::TablePrinter::num(base),
                   stats::TablePrinter::num(prim),
                   stats::TablePrinter::num(overhead)});
    const std::string sz = std::to_string(size);
    results.add("baseline_median/" + sz + "B", base, "us");
    results.add("primitive_median/" + sz + "B", prim, "us");
    results.add("overhead/" + sz + "B", overhead, "us");
  }
  table.print("Figure 3a: median end-to-end latency vs packet size");

  char claim[160];
  std::snprintf(claim, sizeof(claim),
                "remote lookup adds %.2f-%.2f us (paper: 1-2 us band)",
                min_overhead, max_overhead);
  results.verdict(all_in_band, claim);
  return results.finish();
}
