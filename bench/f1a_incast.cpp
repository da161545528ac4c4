// F1a (§2.1 / Fig. 1a) — mitigating incast losses with a remote packet
// buffer.
//
// The paper's arithmetic: all links 40 Gb/s, 12 MB switch packet buffer,
// a 50 MB synchronized burst from eight uplinks toward one server. The
// burst needs >= 10 ms to drain but the buffer fills within
// 12 MB / (8-1 senders' surplus) ~ 0.34 ms and drops begin. With a
// remote buffer striped over servers under the ToR (O(1 GB) per server),
// the whole burst is absorbed and the last hop becomes lossless.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/packet_buffer.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"

using namespace xmem;

namespace {

constexpr int kSenders = 8;
constexpr std::int64_t kBurstTotal = 50 * sim::kMB;
constexpr std::int64_t kSwitchBuffer = 12 * sim::kMB;

struct Outcome {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  double first_drop_ms = -1;
  double completion_ms = 0;
  std::int64_t max_ring_depth = 0;
  std::uint64_t server_cpu = 0;
};

/// Topology: kSenders uplink-like sources + 1 receiver + `memory_servers`
/// remote-buffer servers, all on 40 Gb/s links under one ToR with a
/// 12 MB shared buffer.
Outcome run(bool with_primitive, int memory_servers) {
  control::Testbed::Config cfg;
  cfg.hosts = kSenders + 1 + memory_servers;
  cfg.switch_config.tm.shared_buffer_bytes = kSwitchBuffer;
  control::Testbed tb(cfg);
  const int receiver = kSenders;

  std::unique_ptr<core::PacketBufferPrimitive> pb;
  if (with_primitive) {
    std::vector<control::RdmaChannelConfig> channels;
    for (int s = 0; s < memory_servers; ++s) {
      const int host = kSenders + 1 + s;
      // O(1 GB) per server in the paper; 16 MiB comfortably holds this
      // burst's share and keeps the harness light.
      channels.push_back(tb.controller().setup_channel(
          tb.host(host), tb.port_of(host),
          {.region_bytes = 16 * static_cast<std::size_t>(sim::kMiB)}));
    }
    pb = std::make_unique<core::PacketBufferPrimitive>(
        tb.tor(), channels,
        core::PacketBufferPrimitive::Config{
            .watch_port = tb.port_of(receiver),
            .divert_threshold_bytes = 100 * 1500,
            .resume_threshold_bytes = 30 * 1500,
            .entry_bytes = 1536,
        });
  }

  host::PacketSink sink(tb.host(receiver));
  std::vector<host::Host*> senders;
  for (int i = 0; i < kSenders; ++i) senders.push_back(&tb.host(i));
  host::IncastCoordinator incast(
      senders, {.dst_mac = tb.host(receiver).mac(),
                .dst_ip = tb.host(receiver).ip(),
                .frame_size = 1500,
                .burst_bytes_per_sender = kBurstTotal / kSenders,
                .sender_rate = sim::gbps(40),
                .start_jitter = sim::microseconds(5)});

  sim::Time first_drop = -1;
  tb.tor().tm().add_watcher(
      [&](switchsim::QueueEvent event, int, std::int64_t) {
        if (event == switchsim::QueueEvent::kDrop && first_drop < 0) {
          first_drop = tb.sim().now();
        }
      });

  incast.start(0);
  tb.sim().run();

  Outcome out;
  out.sent = incast.total_packets_sent();
  out.delivered = sink.packets();
  out.dropped = out.sent - out.delivered;
  out.first_drop_ms = first_drop < 0 ? -1 : sim::to_milliseconds(first_drop);
  out.completion_ms = sim::to_milliseconds(sink.last_arrival());
  if (pb) {
    out.max_ring_depth = pb->stats().max_ring_depth;
    for (int s = 0; s < memory_servers; ++s) {
      out.server_cpu += tb.host(kSenders + 1 + s).cpu_packets();
    }
  }
  return out;
}

std::string pct(std::uint64_t part, std::uint64_t whole) {
  return stats::TablePrinter::num(100.0 * static_cast<double>(part) /
                                  static_cast<double>(whole)) + "%";
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchResults results(argc, argv);
  bench::banner(
      "F1a (§2.1)", "last-hop incast absorption",
      "8x40G senders, 50 MB burst, 12 MB buffer: buffer full in ~0.34 ms "
      "and drops follow; the remote packet buffer makes the hop lossless");

  const Outcome base = run(false, 0);
  const Outcome remote = run(true, 10);

  stats::TablePrinter table({"configuration", "sent", "delivered", "dropped",
                             "loss", "first drop (ms)", "burst done (ms)"});
  table.add_row({"drop-tail ToR, 12 MB buffer", std::to_string(base.sent),
                 std::to_string(base.delivered), std::to_string(base.dropped),
                 pct(base.dropped, base.sent),
                 stats::TablePrinter::num(base.first_drop_ms),
                 stats::TablePrinter::num(base.completion_ms)});
  table.add_row({"remote packet buffer (10 servers)",
                 std::to_string(remote.sent),
                 std::to_string(remote.delivered),
                 std::to_string(remote.dropped), pct(remote.dropped, remote.sent),
                 "-", stats::TablePrinter::num(remote.completion_ms)});
  table.print("F1a: 50 MB incast onto one 40 Gb/s last hop");

  std::printf("remote ring high-water mark: %lld entries (%.1f MB)\n",
              static_cast<long long>(remote.max_ring_depth),
              static_cast<double>(remote.max_ring_depth) * 1500 / 1e6);
  std::printf("memory-server CPU packets during absorption: %llu\n",
              static_cast<unsigned long long>(remote.server_cpu));
  bench::note(
      "10 stripes, not 8: every diverted frame carries 78 B of RoCE "
      "framing and each RNIC tops out at ~34 Gb/s of 1500 B WRITEs, so "
      "absorbing the full 320 Gb/s arrival needs ceil(320/34) = 10 "
      "servers - a deployment detail the paper's arithmetic leaves out.");

  results.verdict(base.first_drop_ms > 0.25 && base.first_drop_ms < 0.5,
                  "baseline buffer exhausts in ~0.34 ms (paper arithmetic)");
  results.verdict(base.dropped > 0, "baseline drop-tail switch loses packets");
  results.verdict(remote.dropped == 0,
                  "remote packet buffer delivers the burst losslessly");
  results.verdict(remote.completion_ms > 9.5 && remote.completion_ms < 14.0,
                  "burst drains in ~10 ms (50 MB at 40 Gb/s)");
  results.verdict(remote.server_cpu == 0, "zero server CPU involvement");
  return results.finish();
}
