// A7 — "Sharded state store: atomic throughput scales with servers".
//
// The paper motivates multi-server deployments ("a remote buffer located
// in one or multiple servers", §2.1; sharded tables, §2.2) but measures a
// single memory server whose RNIC caps atomic Fetch-and-Add throughput at
// a few Mops. This bench sweeps a ChannelSet pool over 1/2/4/8 memory
// servers under identical 40 Gb/s update demand and reports aggregate
// completed-F&A throughput: each server enforces its own outstanding
// window and atomic execution rate, so the aggregate should scale close
// to linearly until demand is met, while counting stays exact.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/state_store.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/flow.hpp"

using namespace xmem;

namespace {

constexpr std::uint64_t kCounters = 64;

struct Result {
  double mops = 0;        // completed fetch-adds per second, in millions
  double accuracy = 0;    // landed counts / sampled packets
  std::uint64_t sampled = 0;
};

Result run(int servers) {
  control::Testbed::Config tcfg;
  tcfg.hosts = 2;
  tcfg.memory_servers = servers;
  control::Testbed tb(tcfg);

  auto configs = tb.setup_memory_pool({.region_bytes = 64 * 1024});

  // Round-robin every data packet over kCounters indices so all shards
  // see equal demand (index i lives on shard i % K).
  std::uint64_t seq = 0;
  core::StateStorePrimitive::Config cfg;
  cfg.sample_fn =
      [&seq](const net::Packet& p) -> std::optional<std::uint64_t> {
    auto tuple = net::extract_five_tuple(p);
    if (!tuple || tuple->dst_port == net::kRoceV2Port) return std::nullopt;
    return seq++ % kCounters;
  };
  core::StateStorePrimitive store(tb.tor(), configs, cfg);

  // 40 Gb/s of 128 B frames: ~33 Mpps of update demand, far beyond any
  // single RNIC's atomic rate — combining folds the surplus, so the
  // completed-op rate measures the pool's aggregate atomic throughput.
  host::PacketSink sink(tb.host(1));
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                       .dst_ip = tb.host(1).ip(),
                                       .frame_size = 128,
                                       .rate = sim::gbps(40)});
  gen.start();
  const sim::Time window = sim::milliseconds(2);
  tb.sim().run_until(window);
  gen.stop();
  const std::uint64_t completed_in_window = store.stats().acks_received;

  // Drain the tail and audit every shard's region: sharding must not
  // cost accuracy.
  tb.sim().run();
  for (int i = 0; i < 50 && !store.quiescent(); ++i) {
    store.flush();
    tb.sim().run_until(tb.sim().now() + sim::milliseconds(1));
    tb.sim().run();
  }
  std::uint64_t counted = 0;
  for (int s = 0; s < servers; ++s) {
    auto region = control::ChannelController::region_bytes(
        tb.memory_server(s), configs[static_cast<std::size_t>(s)]);
    for (std::size_t i = 0; i + 8 <= region.size(); i += 8) {
      counted += rnic::load_le64(region.subspan(i, 8));
    }
  }

  Result r;
  r.mops = static_cast<double>(completed_in_window) /
           (static_cast<double>(window) / sim::kSecond) / 1e6;
  r.sampled = store.stats().sampled_packets;
  r.accuracy = r.sampled == 0
                   ? 0
                   : static_cast<double>(counted) /
                         static_cast<double>(r.sampled);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchResults results(argc, argv);
  bench::banner("A7", "sharded state store scale-out (1/2/4/8 servers)",
                "single-server atomics cap at a few Mops; pooling servers "
                "multiplies the cap (§2.1/§2.2 multi-server deployments)");

  stats::TablePrinter table({"mem_servers", "fetch_add_Mops", "speedup",
                             "accuracy"});
  double base_mops = 0;
  double worst_efficiency = 1.0;
  double worst_accuracy = 1.0;
  for (int servers : {1, 2, 4, 8}) {
    const Result r = run(servers);
    if (servers == 1) base_mops = r.mops;
    const double speedup = base_mops > 0 ? r.mops / base_mops : 0;
    worst_efficiency = std::min(worst_efficiency, speedup / servers);
    if (r.accuracy < worst_accuracy) worst_accuracy = r.accuracy;
    table.add_row({std::to_string(servers),
                   stats::TablePrinter::num(r.mops, 2),
                   stats::TablePrinter::num(speedup, 2),
                   stats::TablePrinter::num(r.accuracy, 4)});
    const std::string k = "shards_" + std::to_string(servers);
    results.add(k + "/fetch_add_mops", r.mops, "Mops");
    results.add(k + "/speedup", speedup, "x");
    results.add(k + "/accuracy", r.accuracy, "ratio");
  }
  table.print("A7: F&A throughput vs memory-server pool size");

  // The paper's ~2.1 Gb/s F&A stream (Fig. 3b) is the single RNIC's
  // atomic cap: at 110 wire bytes per request that is ~2.4 Mops.
  results.verdict(base_mops > 1.9 && base_mops < 2.9,
                  "one memory server completes the paper's ~2.1 Gb/s of "
                  "110 B F&A requests (1.9-2.9 Mops)");
  results.verdict(worst_efficiency >= 0.9,
                  "F&A throughput scales near-linearly: a pool of K servers "
                  "delivers >= 0.9K x one server");
  results.verdict(worst_accuracy == 1.0,
                  "counting stays exact at every pool size");
  return results.finish();
}
