// The determinism contract (DESIGN.md §16), enforced end to end:
//  - Run-twice: the same seeded incast executed twice in one process
//    produces byte-identical counters AND byte-identical timeseries
//    exports. This is the property xmem-lint's determinism rules
//    (wallclock-ban, raw-rand-ban, unordered-iteration, mutable-global,
//    env-read) exist to protect — any hidden wallclock read, unseeded
//    RNG, or hash-order dependence shows up here as a byte diff.
//  - Golden export: IntCollector::flows_json() iterates the per-flow
//    hash table in sorted key order, so its output is pinned to an
//    exact byte string (FNV-1a flow keys and the JsonWriter number
//    format are both platform-independent).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "control/testbed.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/int_stack.hpp"
#include "net/packet.hpp"
#include "sim/parallel/sweep.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"
#include "telemetry/int_collector.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"

namespace xmem {
namespace {

struct IncastRun {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t drops = 0;
  sim::Time last_arrival = 0;
  std::uint64_t events = 0;
  std::string timeseries_json;
};

// The scaled-down F1a incast from Determinism.GoldenIncastCounters,
// with a TimeSeriesRecorder riding along so the exports are part of
// the comparison surface.
IncastRun run_seeded_incast() {
  control::Testbed::Config cfg;
  cfg.hosts = 5;
  cfg.switch_config.tm.shared_buffer_bytes = 2 * sim::kMB;
  control::Testbed tb(cfg);
  const int receiver = 4;
  host::PacketSink sink(tb.host(receiver));
  std::vector<host::Host*> senders;
  for (int i = 0; i < 4; ++i) senders.push_back(&tb.host(i));
  host::IncastCoordinator incast(
      senders, {.dst_mac = tb.host(receiver).mac(),
                .dst_ip = tb.host(receiver).ip(),
                .frame_size = 1500,
                .burst_bytes_per_sender = 1 * sim::kMB,
                .sender_rate = sim::gbps(40),
                .start_jitter = sim::microseconds(5)});

  telemetry::MetricsRegistry reg;
  reg.register_counter(
      "sink/packets",
      [&sink]() { return static_cast<std::int64_t>(sink.packets()); },
      "packets");
  reg.register_counter(
      "tor/buffer_drops",
      [&tb]() {
        return static_cast<std::int64_t>(tb.tor().stats().buffer_drops);
      },
      "packets");
  // Stopped at 700 us: the recorder reschedules itself every period, so
  // without a stop sim().run() would never drain the queue. 700 us
  // comfortably covers the run (last arrival ~615 us).
  telemetry::TimeSeriesRecorder rec(tb.sim(),
                                    {.period = sim::microseconds(20)});
  rec.track(reg, "sink/packets");
  rec.track(reg, "tor/buffer_drops");
  rec.start();
  tb.sim().schedule_at(sim::microseconds(700), [&rec] { rec.stop(); });

  incast.start(0);
  tb.sim().run();

  IncastRun out;
  out.sent = incast.total_packets_sent();
  out.delivered = sink.packets();
  out.drops = tb.tor().stats().buffer_drops;
  out.last_arrival = sink.last_arrival();
  out.events = tb.sim().events_executed();
  out.timeseries_json = rec.to_json();
  return out;
}

TEST(Determinism, RunTwiceByteIdentical) {
  const IncastRun first = run_seeded_incast();
  const IncastRun second = run_seeded_incast();

  // Counters bit-for-bit...
  EXPECT_EQ(first.sent, second.sent);
  EXPECT_EQ(first.delivered, second.delivered);
  EXPECT_EQ(first.drops, second.drops);
  EXPECT_EQ(first.last_arrival, second.last_arrival);
  EXPECT_EQ(first.events, second.events);

  // ...and the exported artifacts byte-identical. Any nondeterminism in
  // sampling, export iteration order, or number formatting diffs here.
  EXPECT_EQ(first.timeseries_json, second.timeseries_json);

  // Sanity: the run did real work (matches the golden-counter test) and
  // the recorder actually sampled it.
  EXPECT_EQ(first.sent, 2668u);
  EXPECT_EQ(first.delivered, 2013u);
  EXPECT_NE(first.timeseries_json.find("sink/packets"), std::string::npos);
  EXPECT_NE(first.timeseries_json.find("tor/buffer_drops"), std::string::npos);
}

// One tagged packet for the flow (src_port, dst_port), path latency
// exactly `path_us` microseconds: first-hop ingress at t=0, collected
// at now = path_us.
void collect_tagged(telemetry::IntCollector& collector, std::uint16_t src_port,
                    std::uint16_t dst_port, std::uint32_t path_us) {
  net::Packet p = net::build_udp_packet(
      net::MacAddress::from_index(1), net::MacAddress::from_index(2),
      net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2), src_port,
      dst_port, {});
  net::IntHopRecord rec;
  rec.hop_id = 7;
  rec.kind = static_cast<std::uint8_t>(net::IntHopKind::kTmQueue);
  rec.ingress_ns = 0;
  rec.egress_ns = 200;
  p.meta().int_stack.ensure().push(rec);
  collector.collect(p, sim::microseconds(path_us));
}

telemetry::IntCollector::Config flow_config() {
  telemetry::IntCollector::Config cfg;
  cfg.max_flows = 16;
  return cfg;
}

TEST(Determinism, FlowsJsonGoldenExport) {
  telemetry::IntCollector collector(flow_config());
  // Three flows, inserted in an order chosen so ascending FNV-1a key
  // order differs from insertion order — the export must sort, not
  // replay the hash table.
  collect_tagged(collector, 1111, 2222, 10);
  collect_tagged(collector, 3333, 4444, 20);
  collect_tagged(collector, 3333, 4444, 40);
  collect_tagged(collector, 5555, 6666, 30);

  // sorted_flows() is ascending by key and covers every flow.
  const auto sorted = collector.sorted_flows();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_LT(sorted[0].first, sorted[1].first);
  EXPECT_LT(sorted[1].first, sorted[2].first);

  // Golden bytes: FNV-1a keys and JsonWriter formatting are both
  // platform-independent, so this string is exact. Regenerate only for
  // a deliberate format change (and call it out in the PR).
  const std::string golden =
      "[{\"flow\":12739408862103066250,\"packets\":1,"
      "\"path_latency_us_count\":1,\"path_latency_us_mean\":10,"
      "\"path_latency_us_p99\":10},"
      "{\"flow\":14436233535204635395,\"packets\":1,"
      "\"path_latency_us_count\":1,\"path_latency_us_mean\":30,"
      "\"path_latency_us_p99\":30},"
      "{\"flow\":15699290782987124318,\"packets\":2,"
      "\"path_latency_us_count\":2,\"path_latency_us_mean\":30,"
      "\"path_latency_us_p99\":39.799999999999997}]";
  EXPECT_EQ(collector.flows_json(), golden);
}

// One sweep cell: a seeded incast variant simulated on a private
// Testbed, serialized through the deterministic JsonWriter. The cell's
// burst size is drawn from the replica's Rng sub-stream, so the two
// cells are distinct simulations and the artifact depends on the whole
// (sweep seed, cell index) derivation chain.
std::string sweep_cell_json(sim::par::ReplicaContext& ctx) {
  control::Testbed tb;
  host::PacketSink sink(tb.host(1));
  host::CbrTrafficGen gen(tb.host(0),
                          {.dst_mac = tb.host(1).mac(),
                           .dst_ip = tb.host(1).ip(),
                           .frame_size = 512,
                           .rate = sim::gbps(10),
                           .packet_limit = 500 + ctx.rng.uniform(500)});
  gen.start();
  tb.sim().run();

  telemetry::json::JsonWriter w;
  w.begin_object();
  w.kv("cell", static_cast<std::uint64_t>(ctx.index));
  w.kv("delivered", static_cast<std::uint64_t>(sink.packets()));
  w.kv("bytes", sink.bytes());
  w.kv("end_time", static_cast<std::int64_t>(tb.sim().now()));
  w.kv("events", tb.sim().events_executed());
  w.end_object();
  return w.take();
}

std::string run_sweep_artifact(std::size_t jobs) {
  sim::par::SweepDriver<std::string> driver(
      {.jobs = jobs, .seed = 0x5eed2ce11ULL});
  std::vector<sim::par::SweepDriver<std::string>::Cell> cells = {
      sweep_cell_json, sweep_cell_json};
  return sim::par::merged_json(driver.run(cells));
}

TEST(Determinism, SweepArtifactByteIdenticalAcrossJobs) {
  // The parallel sweep engine's artifact contract (DESIGN.md §17): a
  // 2-cell sweep merged at jobs=1 (inline, no pool) and at jobs=4
  // (worker threads) produces byte-identical JSON.
  const std::string serial = run_sweep_artifact(1);
  const std::string parallel = run_sweep_artifact(4);
  EXPECT_EQ(serial, parallel);

  // Sanity: both cells simulated real, distinct work.
  EXPECT_NE(serial.find("\"cell\":0"), std::string::npos);
  EXPECT_NE(serial.find("\"cell\":1"), std::string::npos);
  EXPECT_NE(serial.find("\"delivered\""), std::string::npos);
}

TEST(Determinism, FlowsJsonRunTwiceByteIdentical) {
  // Belt to the golden test's braces: two independently built collectors
  // fed identical traffic export identical bytes — no dependence on the
  // hash table's bucket order or allocation history.
  telemetry::IntCollector a(flow_config());
  telemetry::IntCollector b(flow_config());
  for (telemetry::IntCollector* c : {&a, &b}) {
    collect_tagged(*c, 1111, 2222, 10);
    collect_tagged(*c, 3333, 4444, 20);
    collect_tagged(*c, 5555, 6666, 30);
  }
  EXPECT_EQ(a.flows_json(), b.flows_json());
  EXPECT_FALSE(a.flows_json().empty());
}

}  // namespace
}  // namespace xmem
