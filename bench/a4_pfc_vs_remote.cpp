// A4 (ablation, §2.1/§7) — PFC vs the remote packet buffer.
//
// The paper dismisses the incumbent: "Priority Flow Control (PFC) has
// been proposed. Unfortunately, it leads to other serious problems such
// as occasional deadlocks", and sells the remote buffer as "a 'lossless'
// last-hop ToR switch, without the caveats of PFC."
//
// The experiment: an incast onto one port while an innocent victim flow
// crosses the same switch to a *different*, uncongested port. Three
// designs: drop-tail, PFC, remote packet buffer. Reported per design:
// incast loss, victim loss, and victim tail latency (the head-of-line
// blocking PFC's port-granular pause inflicts).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/packet_buffer.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"

using namespace xmem;

namespace {

enum class Design { kDropTail, kPfc, kRemoteBuffer };

struct Outcome {
  double incast_loss_pct = 0;
  double victim_loss_pct = 0;
  double victim_p50_us = 0;
  double victim_p99_us = 0;
  std::uint64_t pauses = 0;
};

constexpr std::uint64_t kVictimPackets = 2000;

Outcome run(Design design) {
  // h0,h1 incast senders -> h2; h3 victim sender -> h4; h5,h6 memory.
  control::Testbed::Config cfg;
  cfg.hosts = 7;
  cfg.switch_config.tm.shared_buffer_bytes = 100 * 1500;
  control::Testbed tb(cfg);

  std::unique_ptr<core::PacketBufferPrimitive> pb;
  if (design == Design::kPfc) {
    tb.tor().enable_pfc(/*xoff=*/60 * 1500, /*xon=*/20 * 1500);
  } else if (design == Design::kRemoteBuffer) {
    std::vector<control::RdmaChannelConfig> stripes;
    for (int server : {5, 6}) {
      stripes.push_back(tb.controller().setup_channel(
          tb.host(server), tb.port_of(server),
          {.region_bytes = 16 * static_cast<std::size_t>(sim::kMiB)}));
    }
    pb = std::make_unique<core::PacketBufferPrimitive>(
        tb.tor(), stripes,
        core::PacketBufferPrimitive::Config{
            .watch_port = tb.port_of(2),
            .divert_threshold_bytes = 40 * 1500,
            .resume_threshold_bytes = 15 * 1500,
            .entry_bytes = 1536});
  }

  host::PacketSink incast_sink(tb.host(2));
  host::PacketSink victim_sink(tb.host(4));
  host::IncastCoordinator incast(
      {&tb.host(0), &tb.host(1)},
      {.dst_mac = tb.host(2).mac(),
       .dst_ip = tb.host(2).ip(),
       .frame_size = 1500,
       .burst_bytes_per_sender = 3'000'000,
       .sender_rate = sim::gbps(30)});
  host::CbrTrafficGen victim(tb.host(3), {.dst_mac = tb.host(4).mac(),
                                          .dst_ip = tb.host(4).ip(),
                                          .frame_size = 200,
                                          .rate = sim::gbps(1),
                                          .packet_limit = kVictimPackets});
  incast.start(sim::microseconds(1));
  victim.start();
  tb.sim().run();

  Outcome out;
  const auto incast_sent = incast.total_packets_sent();
  out.incast_loss_pct = 100.0 *
                        static_cast<double>(incast_sent - incast_sink.packets()) /
                        static_cast<double>(incast_sent);
  out.victim_loss_pct =
      100.0 *
      static_cast<double>(kVictimPackets - victim_sink.packets()) /
      static_cast<double>(kVictimPackets);
  out.victim_p50_us = victim_sink.latency_us().median();
  out.victim_p99_us = victim_sink.latency_us().p99();
  out.pauses = tb.tor().stats().pfc_xoff_sent;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchResults results(argc, argv);
  bench::banner(
      "A4 (§2.1/§7 ablation)", "PFC vs remote packet buffer",
      "PFC avoids drops but 'leads to other serious problems'; the remote "
      "buffer gives a lossless last hop 'without the caveats of PFC'");

  const Outcome droptail = run(Design::kDropTail);
  const Outcome pfc = run(Design::kPfc);
  const Outcome remote = run(Design::kRemoteBuffer);

  stats::TablePrinter table({"design", "incast loss", "victim loss",
                             "victim p50 (us)", "victim p99 (us)",
                             "XOFF events"});
  auto row = [&](const char* name, const Outcome& o) {
    table.add_row({name, stats::TablePrinter::num(o.incast_loss_pct) + "%",
                   stats::TablePrinter::num(o.victim_loss_pct) + "%",
                   stats::TablePrinter::num(o.victim_p50_us),
                   stats::TablePrinter::num(o.victim_p99_us),
                   std::to_string(o.pauses)});
  };
  row("drop-tail (150 kB buffer)", droptail);
  row("PFC (switch-wide XOFF)", pfc);
  row("remote packet buffer (2 servers)", remote);
  table.print("A4: incast handling vs collateral damage on a victim flow");

  results.verdict(droptail.incast_loss_pct > 5.0,
                  "drop-tail loses incast traffic");
  results.verdict(pfc.incast_loss_pct == 0.0 && pfc.pauses > 0,
                  "PFC makes the incast lossless");
  results.verdict(pfc.victim_p99_us > 5 * droptail.victim_p99_us,
                  "...but head-of-line blocks the innocent victim flow");
  results.verdict(remote.incast_loss_pct == 0.0,
                  "the remote buffer also makes the incast lossless");
  results.verdict(remote.victim_p99_us < 2 * droptail.victim_p99_us,
                  "...while leaving the victim flow untouched (no caveats)");
  return results.finish();
}
