// Figure 3b — "Bandwidth overhead of state-store primitive".
//
// raw_ethernet_bw-style traffic at 40 Gb/s line rate, packet sizes
// 64..1024 B; the switch counts every packet into a remote counter via
// atomic Fetch-and-Add. Measured on the switch<->RNIC link:
//   - request-direction bandwidth of the F&A stream (the paper's
//     "2.1 Gbps of link bandwidth ... to update the remote counter"),
//   - flat across packet sizes because the RNIC's atomic rate is the cap,
//   - one atomic ACK answers each request,
//   - the counter is 100% accurate,
//   - no end-to-end throughput loss vs the line-rate plain-L2 baseline.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/state_store.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/ethernet.hpp"
#include "net/flow.hpp"

using namespace xmem;

namespace {

struct Result {
  double request_gbps = 0;
  double response_gbps = 0;
  double accuracy_pct = 0;
  double goodput_gbps = 0;
};

double run_baseline_goodput(std::size_t frame_size) {
  control::Testbed tb;
  host::PacketSink sink(tb.host(1));
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                       .dst_ip = tb.host(1).ip(),
                                       .frame_size = frame_size,
                                       .rate = sim::gbps(40)});
  gen.start();
  tb.sim().run_until(sim::milliseconds(2));
  gen.stop();
  tb.sim().run();
  return sim::to_gbps(sink.goodput());
}

Result run_primitive(std::size_t frame_size) {
  control::Testbed tb;
  auto channel = tb.controller().setup_channel(tb.host(2), tb.port_of(2),
                                               {.region_bytes = 64 * 1024});
  core::StateStorePrimitive store(tb.tor(), channel, {});

  // Tap the memory link and account RoCE wire bytes per direction.
  std::int64_t request_wire_bytes = 0;
  std::int64_t response_wire_bytes = 0;
  tb.link_of(2).set_tap([&](const net::Packet& p, sim::Time, int from_end) {
    if (from_end == 0) {
      request_wire_bytes += p.wire_size();  // switch -> RNIC
    } else {
      response_wire_bytes += p.wire_size();
    }
  });

  host::PacketSink sink(tb.host(1));
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                       .dst_ip = tb.host(1).ip(),
                                       .frame_size = frame_size,
                                       .rate = sim::gbps(40)});
  gen.start();
  const sim::Time window = sim::milliseconds(2);
  tb.sim().run_until(window);
  gen.stop();
  const double request_gbps =
      sim::to_gbps(sim::achieved_rate(request_wire_bytes, window));
  const double response_gbps =
      sim::to_gbps(sim::achieved_rate(response_wire_bytes, window));

  // Let the tail drain, flush accumulators, then audit the counters.
  tb.sim().run();
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

  Result r;
  r.request_gbps = request_gbps;
  r.response_gbps = response_gbps;
  r.accuracy_pct = 100.0 * static_cast<double>(counted) /
                   static_cast<double>(store.stats().sampled_packets);
  r.goodput_gbps = sim::to_gbps(sink.goodput());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchResults results(argc, argv);
  bench::banner("Fig. 3b", "state-store primitive bandwidth overhead",
                "F&A updates consume ~2.1 Gb/s on the switch-RNIC link, flat "
                "across packet sizes (capped by RNIC atomic throughput); "
                "counter 100% accurate; no end-to-end throughput loss");

  stats::TablePrinter table({"packet size (B)", "F&A req (Gb/s)",
                             "F&A resp (Gb/s)", "counter accuracy (%)",
                             "e2e goodput (Gb/s)", "baseline goodput (Gb/s)"});
  double min_req = 1e9;
  double max_req = 0;
  // An atomic ACK is 16 B shorter than its F&A request on the wire
  // (AETH + 8 B original value vs AtomicETH's 28 B): 94 vs 110 B.
  constexpr double kAckToRequest = 94.0 / 110.0;
  bool one_ack_per_request = true;
  bool accurate = true;
  bool no_degradation = true;
  bool baseline_at_line_rate = true;
  for (const std::size_t size : {64, 128, 256, 512, 1024}) {
    const double baseline = run_baseline_goodput(size);
    const Result r = run_primitive(size);
    min_req = std::min(min_req, r.request_gbps);
    max_req = std::max(max_req, r.request_gbps);
    one_ack_per_request &=
        std::abs(r.response_gbps / r.request_gbps / kAckToRequest - 1) < 0.05;
    accurate &= r.accuracy_pct > 99.999;
    no_degradation &= r.goodput_gbps > baseline * 0.995;
    // Goodput counts frame bytes; the wire adds FCS, preamble and gap.
    const double line_goodput = 40.0 * static_cast<double>(size) /
                                static_cast<double>(net::wire_bytes(size));
    baseline_at_line_rate &= std::abs(baseline / line_goodput - 1.0) < 0.01;
    table.add_row({std::to_string(size),
                   stats::TablePrinter::num(r.request_gbps),
                   stats::TablePrinter::num(r.response_gbps),
                   stats::TablePrinter::num(r.accuracy_pct, 3),
                   stats::TablePrinter::num(r.goodput_gbps),
                   stats::TablePrinter::num(baseline)});
    const std::string sz = std::to_string(size);
    results.add("fa_request_bw/" + sz + "B", r.request_gbps, "Gb/s");
    results.add("fa_response_bw/" + sz + "B", r.response_gbps, "Gb/s");
    results.add("counter_accuracy/" + sz + "B", r.accuracy_pct, "%");
    results.add("goodput/" + sz + "B", r.goodput_gbps, "Gb/s");
    results.add("baseline_goodput/" + sz + "B", baseline, "Gb/s");
  }
  table.print("Figure 3b: Fetch-and-Add link bandwidth vs packet size");

  char claim[200];
  std::snprintf(claim, sizeof(claim),
                "F&A request stream is %.2f-%.2f Gb/s, flat (paper: ~2.1)",
                min_req, max_req);
  results.verdict(min_req > 1.6 && max_req < 2.6 &&
                      (max_req - min_req) < 0.4 * max_req,
                  claim);
  results.verdict(one_ack_per_request,
                  "F&A response stream is 94/110 of the request stream: "
                  "one atomic ACK per request (within 5%)");
  results.verdict(accurate, "remote counter is 100% accurate");
  results.verdict(baseline_at_line_rate,
                  "plain-L2 baseline runs at 40 Gb/s line rate (goodput "
                  "within 1% of 40 x frame / wire bytes)");
  results.verdict(no_degradation,
                  "no end-to-end throughput degradation vs L2 baseline");
  return results.finish();
}
