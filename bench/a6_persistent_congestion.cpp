// A6 (ablation, §2.1) — persistent congestion and the ECN backstop.
//
// The paper's incast argument has two halves: the remote buffer absorbs
// *bursts*, and "in the case of persistent congestion, end-to-end
// congestion control based on ECN [DCTCP] should have slowed traffic."
// But the remote buffer hides the backlog from the egress queue, so
// queue-depth ECN marking never fires — the backstop is blind unless the
// primitive itself surfaces ring occupancy. This bench quantifies that
// interaction:
//   (a) fixed-rate senders, remote buffer only: the finite ring
//       eventually overflows (persistent overload cannot be buffered
//       away),
//   (b) DCTCP senders + ring-depth CE marking: the senders throttle to
//       the drain rate and the system is lossless end to end.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/packet_buffer.hpp"
#include "host/dctcp.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"

using namespace xmem;

namespace {

constexpr std::uint64_t kPacketsPerSender = 10000;  // 15 MB each

struct Outcome {
  std::uint64_t delivered = 0;
  std::uint64_t ring_drops = 0;
  std::uint64_t tm_drops = 0;
  std::uint64_t ecn_marks = 0;
  double min_sender_gbps = 40;
  double completion_ms = 0;
};

Outcome run(bool with_dctcp) {
  // h0,h1 senders at 30 Gb/s -> h2 (40 Gb/s drain): persistent 1.5x
  // overload. h3,h4 hold a deliberately small 2 x 4 MiB ring.
  control::Testbed::Config cfg;
  cfg.hosts = 5;
  control::Testbed tb(cfg);

  std::vector<control::RdmaChannelConfig> stripes;
  for (int server : {3, 4}) {
    stripes.push_back(tb.controller().setup_channel(
        tb.host(server), tb.port_of(server),
        {.region_bytes = 4 * static_cast<std::size_t>(sim::kMiB)}));
  }
  core::PacketBufferPrimitive pb(
      tb.tor(), stripes,
      core::PacketBufferPrimitive::Config{
          .watch_port = tb.port_of(2),
          .divert_threshold_bytes = 40 * 1500,
          .resume_threshold_bytes = 15 * 1500,
          .entry_bytes = 1536,
          // Mark CE once the ring holds > 1000 entries (~1.5 MB).
          .ecn_mark_ring_depth = with_dctcp ? 1000 : 0,
      });

  host::PacketSink sink(tb.host(2), /*install=*/false);
  host::EcnEchoReceiver receiver(
      tb.host(2), [&](const net::Packet& p) { sink.accept(p); });

  std::vector<std::unique_ptr<host::DctcpSender>> dctcp;
  std::vector<std::unique_ptr<host::CbrTrafficGen>> cbr;
  for (int h : {0, 1}) {
    host::CbrTrafficGen::Config traffic{
        .dst_mac = tb.host(2).mac(),
        .dst_ip = tb.host(2).ip(),
        .src_port = static_cast<std::uint16_t>(7000 + h),
        .frame_size = 1500,
        .rate = sim::gbps(30),
        .packet_limit = kPacketsPerSender};
    if (with_dctcp) {
      dctcp.push_back(std::make_unique<host::DctcpSender>(
          tb.host(h), host::DctcpSender::Config{.traffic = traffic}));
      dctcp.back()->start();
    } else {
      cbr.push_back(std::make_unique<host::CbrTrafficGen>(tb.host(h), traffic));
      cbr.back()->start();
    }
  }
  tb.sim().run();

  Outcome out;
  out.delivered = sink.packets();
  out.ring_drops = pb.stats().ring_full_drops;
  out.tm_drops = tb.tor().tm().total_drops();
  out.ecn_marks = pb.stats().ecn_marked;
  out.completion_ms = sim::to_milliseconds(sink.last_arrival());
  for (const auto& s : dctcp) {
    out.min_sender_gbps =
        std::min(out.min_sender_gbps, sim::to_gbps(s->min_rate_seen()));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchResults results(argc, argv);
  bench::banner(
      "A6 (§2.1 ablation)", "persistent overload needs the ECN backstop",
      "bursts are absorbed by remote DRAM; persistent congestion must be "
      "slowed by ECN-based end-to-end congestion control");

  const Outcome open_loop = run(false);
  const Outcome closed_loop = run(true);

  stats::TablePrinter table({"senders", "delivered", "ring drops",
                             "buffer drops", "CE marks",
                             "min sender rate (Gb/s)", "done (ms)"});
  table.add_row({"fixed 2x30 Gb/s (open loop)",
                 std::to_string(open_loop.delivered),
                 std::to_string(open_loop.ring_drops),
                 std::to_string(open_loop.tm_drops),
                 std::to_string(open_loop.ecn_marks), "-",
                 stats::TablePrinter::num(open_loop.completion_ms)});
  table.add_row({"DCTCP + ring-aware CE marking",
                 std::to_string(closed_loop.delivered),
                 std::to_string(closed_loop.ring_drops),
                 std::to_string(closed_loop.tm_drops),
                 std::to_string(closed_loop.ecn_marks),
                 stats::TablePrinter::num(closed_loop.min_sender_gbps),
                 stats::TablePrinter::num(closed_loop.completion_ms)});
  table.print("A6: 1.5x persistent overload, 2 x 4 MiB remote ring");

  bench::note("ring-depth CE marking is our §2.1 co-design: the remote "
              "buffer hides the backlog from normal queue-based ECN, so "
              "the primitive itself must surface it for the paper's "
              "backstop to engage.");
  results.verdict(open_loop.ring_drops > 0,
                  "open-loop senders eventually overflow the finite ring");
  results.verdict(closed_loop.ring_drops == 0 && closed_loop.tm_drops == 0 &&
                      closed_loop.delivered == 2 * kPacketsPerSender,
                  "with the ECN backstop the same overload is lossless");
  results.verdict(closed_loop.min_sender_gbps < 25.0,
                  "DCTCP pulled the senders toward the 20 Gb/s fair share");
  return results.finish();
}
