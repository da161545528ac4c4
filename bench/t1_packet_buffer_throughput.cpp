// T1 (§5 text) — packet-buffer primitive throughput microbenchmark.
//
// The paper: "the primitive can store 1500B MTU sized packets arriving at
// the rate of 34.1 Gbps to the remote buffer and forward the packets to
// their original destination at the rate of 37.4 Gbps without packet
// loss. Beyond these rates ... RDMA requests were occasionally dropped at
// the NIC. As a baseline, we test native server-to-server RDMA WRITE and
// READ throughput. The baseline is only 4.4% faster."
//
// Methodology mirrors the paper's: the two steps are started manually —
// first store-everything with the load path gated, then drain-and-forward
// — plus a loss-free offered-rate sweep for the store ceiling and a
// native host-to-host verbs baseline.
#include <cstdio>
#include <functional>

#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/packet_buffer.hpp"
#include "core/verbs.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"

using namespace xmem;

namespace {

constexpr std::size_t kFrame = 1500;

control::Testbed::Config testbed_config() {
  control::Testbed::Config cfg;
  cfg.hosts = 3;  // h0 sender, h1 receiver, h2 memory server
  return cfg;
}

/// Returns true if `rate` of 1500 B packets stores losslessly for 2 ms.
bool store_lossless_at(sim::Bandwidth rate) {
  control::Testbed tb(testbed_config());
  auto channel = tb.controller().setup_channel(
      tb.host(2), tb.port_of(2),
      {.region_bytes = 64 * static_cast<std::size_t>(sim::kMiB)});
  core::PacketBufferPrimitive pb(tb.tor(), channel,
                                 {.watch_port = tb.port_of(1),
                                  .divert_threshold_bytes = 0,
                                  .entry_bytes = 1536,  // one full frame
                                  .load_enabled = false});
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                       .dst_ip = tb.host(1).ip(),
                                       .frame_size = kFrame,
                                       .rate = rate});
  gen.start();
  tb.sim().run_until(sim::milliseconds(2));
  gen.stop();
  tb.sim().run();
  const auto& nic = tb.host(2).rnic().stats();
  return nic.requests_dropped_overflow == 0 &&
         pb.stats().ring_full_drops == 0 &&
         tb.tor().tm().total_drops() == 0 &&
         pb.stats().stored == gen.packets_sent();
}

/// Binary-search the highest lossless store rate.
double store_ceiling_gbps() {
  sim::Bandwidth lo = sim::gbps(20);  // known good
  sim::Bandwidth hi = sim::gbps(40);  // known bad (line rate)
  if (store_lossless_at(hi)) return sim::to_gbps(hi);
  while (hi - lo > sim::mbps(100)) {
    const sim::Bandwidth mid = (lo + hi) / 2;
    if (store_lossless_at(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return sim::to_gbps(lo);
}

/// Store a burst with loading gated, then enable loading and measure the
/// forwarding rate to the destination.
double load_forward_gbps(std::uint64_t packets) {
  control::Testbed tb(testbed_config());
  auto channel = tb.controller().setup_channel(
      tb.host(2), tb.port_of(2),
      {.region_bytes = 64 * static_cast<std::size_t>(sim::kMiB)});
  core::PacketBufferPrimitive pb(tb.tor(), channel,
                                 {.watch_port = tb.port_of(1),
                                  .divert_threshold_bytes = 0,
                                  .resume_threshold_bytes = 30 * 1500,
                                  .entry_bytes = 1536,  // one full frame
                                  .load_enabled = false});
  host::PacketSink sink(tb.host(1));
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                       .dst_ip = tb.host(1).ip(),
                                       .frame_size = kFrame,
                                       .rate = sim::gbps(30),
                                       .packet_limit = packets});
  gen.start();
  tb.sim().run();  // store phase completes
  if (pb.stats().stored != packets) {
    std::fprintf(stderr, "store phase lost packets: %llu/%llu\n",
                 static_cast<unsigned long long>(pb.stats().stored),
                 static_cast<unsigned long long>(packets));
  }

  const sim::Time start = tb.sim().now();
  pb.set_load_enabled(true);
  tb.sim().run();  // drain phase completes
  if (sink.packets() != packets || pb.stats().lost_loads != 0) {
    std::fprintf(stderr, "drain lost packets\n");
  }
  const sim::Time elapsed = sink.last_arrival() - start;
  return sim::to_gbps(
      sim::achieved_rate(static_cast<std::int64_t>(packets * kFrame), elapsed));
}

/// Native server-to-server one-sided throughput using the verbs engine
/// with `message_bytes` messages and a deep pipeline, for 2 ms.
double native_gbps(bool use_read, std::size_t message_bytes) {
  control::Testbed tb(testbed_config());
  auto& server = tb.host(1);
  auto& mr = server.rnic().memory().register_region(
      8 * static_cast<std::size_t>(sim::kMiB), rnic::Access::kAll);
  auto& server_qp = server.rnic().create_qp();
  auto& client = tb.host(0);
  auto& client_qp = client.rnic().create_qp();
  server.rnic().connect_qp(server_qp.qpn, client.endpoint(), client_qp.qpn,
                           roce::Psn(0));
  core::RcRequester requester(tb.sim(), client.rnic(), client_qp.qpn);
  requester.connect(server.endpoint(), server_qp.qpn, roce::Psn(0),
                    mr.rkey());

  std::int64_t completed_bytes = 0;
  bool stop = false;
  std::function<void()> post_next = [&]() {
    if (stop) return;
    auto completion = [&](const core::WorkCompletion& wc) {
      if (!wc.success) return;
      completed_bytes += static_cast<std::int64_t>(message_bytes);
      post_next();
    };
    const std::uint64_t va = mr.base_va() +
                             (static_cast<std::uint64_t>(completed_bytes) %
                              (4 * static_cast<std::uint64_t>(sim::kMiB)));
    if (use_read) {
      requester.post_read(va, message_bytes, completion);
    } else {
      requester.post_write(va, std::vector<std::uint8_t>(message_bytes, 0xab),
                           completion);
    }
  };
  // Keep several messages outstanding, like perftest's tx-depth.
  for (int i = 0; i < 8; ++i) post_next();

  const sim::Time window = sim::milliseconds(2);
  tb.sim().run_until(window);
  stop = true;
  const double gbps = sim::to_gbps(sim::achieved_rate(completed_bytes, window));
  tb.sim().run();
  return gbps;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchResults results(argc, argv);
  bench::banner(
      "T1 (§5)", "packet-buffer primitive throughput",
      "store at 34.1 Gb/s, load+forward at 37.4 Gb/s, both lossless; "
      "native server-to-server RDMA only 4.4% faster");

  const double store = store_ceiling_gbps();
  const double forward = load_forward_gbps(20000);  // 30 MB burst
  const double native_write = native_gbps(false, 64 * 1024);
  const double native_read = native_gbps(true, 64 * 1024);
  const double native_best = std::max(native_write, native_read);

  stats::TablePrinter table({"path", "measured (Gb/s)", "paper (Gb/s)"});
  table.add_row({"store (1500B entries, lossless ceiling)",
                 stats::TablePrinter::num(store), "34.1"});
  table.add_row({"load + forward (chained READs)",
                 stats::TablePrinter::num(forward), "37.4"});
  table.add_row({"native RDMA WRITE (64 KiB msgs)",
                 stats::TablePrinter::num(native_write), "-"});
  table.add_row({"native RDMA READ (64 KiB msgs)",
                 stats::TablePrinter::num(native_read), "-"});
  table.print("T1: packet-buffer microbenchmark, 1500 B MTU packets");

  results.add("store_ceiling", store, "Gb/s");
  results.add("load_forward", forward, "Gb/s");
  results.add("native_write", native_write, "Gb/s");
  results.add("native_read", native_read, "Gb/s");

  const double baseline_advantage = (native_best / forward - 1.0) * 100.0;
  std::printf("native baseline is %.1f%% faster than load+forward "
              "(paper: 4.4%%)\n",
              baseline_advantage);
  results.add("native_advantage", baseline_advantage, "%");

  results.verdict(store > 32.0 && store < 36.0,
                  "store ceiling lands near the paper's 34.1 Gb/s");
  results.verdict(forward > 36.0 && forward < 39.0,
                  "load+forward lands near the paper's 37.4 Gb/s");
  results.verdict(store < forward && forward < native_write &&
                      forward < native_read,
                  "ordering holds: store < load+forward < both native verbs");
  results.verdict(baseline_advantage > 2.9 && baseline_advantage < 5.9,
                  "native advantage is within 1.5 points of the paper's 4.4%");
  return results.finish();
}
