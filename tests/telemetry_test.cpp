// Tests for the telemetry layer: registry naming and export, op-span
// lifecycle (including NAK/retransmit pairing), and two end-to-end
// guarantees — every primitive Stats field visible in snapshot(), and
// byte-identical snapshots from identical seeded runs. (Periodic
// sampling is timeseries_test.)
#include <gtest/gtest.h>

#include <stdexcept>

#include "control/testbed.hpp"
#include "core/packet_buffer.hpp"
#include "core/state_store.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/flow.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/op_tracer.hpp"
#include "telemetry/sim_metrics.hpp"

namespace xmem::telemetry {
namespace {

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistry, DuplicateNameThrows) {
  MetricsRegistry reg;
  reg.register_counter("a/b", []() { return 1; });
  EXPECT_THROW(reg.register_counter("a/b", []() { return 2; }),
               std::invalid_argument);
  EXPECT_THROW(reg.register_gauge("a/b", []() { return 2.0; }),
               std::invalid_argument);
  EXPECT_THROW(reg.register_counter("", []() { return 0; }),
               std::invalid_argument);
}

TEST(MetricsRegistry, ReadAndSnapshotObserveLiveValues) {
  MetricsRegistry reg;
  std::int64_t count = 0;
  double level = 0.0;
  reg.register_counter("x/count", [&]() { return count; }, "ops");
  reg.register_gauge("x/level", [&]() { return level; }, "bytes");

  count = 41;
  level = 2.5;
  EXPECT_EQ(reg.read("x/count"), 41.0);
  EXPECT_EQ(reg.read("x/level"), 2.5);
  EXPECT_THROW((void)reg.read("missing"), std::out_of_range);

  count = 42;
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "x/count");
  EXPECT_EQ(snap[0].integer, 42);
  EXPECT_EQ(snap[0].unit, "ops");
  EXPECT_EQ(snap[1].name, "x/level");
  EXPECT_EQ(snap[1].as_double(), 2.5);
}

TEST(MetricsRegistry, HistogramsExpandAndMerge) {
  MetricsRegistry reg;
  auto& h = reg.histogram("lat/qp0", "us");
  EXPECT_EQ(&h, &reg.histogram("lat/qp0")) << "same name, same histogram";
  EXPECT_THROW(reg.register_counter("lat/qp0", []() { return 0; }),
               std::invalid_argument);
  EXPECT_THROW((void)reg.read("lat/qp0"), std::invalid_argument)
      << "histograms are not scalar";
  h.add(1.0);
  h.add(3.0);
  reg.histogram("lat/qp1", "us").add(5.0);

  const auto snap = reg.snapshot();
  std::map<std::string, double> by_name;
  for (const auto& s : snap) by_name[s.name] = s.as_double();
  EXPECT_EQ(by_name.at("lat/qp0/count"), 2.0);
  EXPECT_EQ(by_name.at("lat/qp0/mean"), 2.0);
  EXPECT_EQ(by_name.at("lat/qp0/max"), 3.0);
  EXPECT_EQ(by_name.at("lat/qp1/count"), 1.0);
}

TEST(MetricsRegistry, SimMetricsExportEngineCounters) {
  sim::Simulator simulator;
  MetricsRegistry reg;
  register_sim_metrics(reg, simulator);

  const sim::EventId keep = simulator.schedule_in(sim::picoseconds(10), [] {});
  const sim::EventId dead = simulator.schedule_in(sim::picoseconds(20), [] {});
  dead.cancel();
  (void)keep;
  EXPECT_EQ(reg.read("sim/events_scheduled"), 2.0);
  EXPECT_EQ(reg.read("sim/events_live"), 1.0);
  EXPECT_EQ(reg.read("sim/events_executed"), 0.0);

  simulator.run();
  EXPECT_EQ(reg.read("sim/events_executed"), 1.0);
  EXPECT_EQ(reg.read("sim/events_live"), 0.0);
  EXPECT_EQ(reg.read("sim/queue_size_bound"), 0.0);
}

TEST(MetricsRegistry, JsonExportRoundTrips) {
  MetricsRegistry reg;
  reg.register_counter("rdma/reads", []() { return 7; }, "ops");
  reg.register_gauge("tm/depth", []() { return 1536.5; }, "bytes");

  const auto doc = json::parse(reg.to_json());
  const auto& rows = doc.at("metrics").array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at("name").string(), "rdma/reads");
  EXPECT_EQ(rows[0].at("kind").string(), "counter");
  EXPECT_EQ(rows[0].at("value").number(), 7.0);
  EXPECT_EQ(rows[1].at("name").string(), "tm/depth");
  EXPECT_EQ(rows[1].at("kind").string(), "gauge");
  EXPECT_EQ(rows[1].at("value").number(), 1536.5);
}

// --- OpTracer -------------------------------------------------------------

TEST(OpTracer, SpanClosesOnceAndKeepsFirstStatus) {
  sim::Simulator sim;
  OpTracer tracer(sim);
  const int t = tracer.track("chan0");

  tracer.begin_op(t, "READ", roce::Psn(100), 2048);
  EXPECT_TRUE(tracer.op_open(t, roce::Psn(100)));
  tracer.end_op(t, roce::Psn(100), "nak:remote_access_error");
  tracer.end_op(t, roce::Psn(100), "ok");  // late duplicate ACK: ignored
  EXPECT_FALSE(tracer.op_open(t, roce::Psn(100)));
  EXPECT_EQ(tracer.stats().spans_opened, 1u);
  EXPECT_EQ(tracer.stats().spans_closed, 1u);
  EXPECT_EQ(tracer.stats().duplicate_closes, 1u);

  const auto doc = json::parse(tracer.chrome_trace_json());
  bool found = false;
  for (const auto& e : doc.at("traceEvents").array()) {
    if (e.at("ph").string() != "X") continue;
    found = true;
    EXPECT_EQ(e.at("name").string(), "READ");
    EXPECT_EQ(e.at("args").at("status").string(), "nak:remote_access_error");
    EXPECT_EQ(e.at("args").at("psn").number(), 100.0);
  }
  EXPECT_TRUE(found);
}

TEST(OpTracer, RetransmitAnnotatesInsteadOfReopening) {
  sim::Simulator sim;
  OpTracer tracer(sim);
  const int t = tracer.track("chan0");

  tracer.begin_op(t, "FETCH_ADD", roce::Psn(7), 8);
  tracer.annotate(t, roce::Psn(7), "nak", "sequence_error");
  tracer.note_retransmit(t, roce::Psn(7));
  tracer.begin_op(t, "FETCH_ADD", roce::Psn(7), 8);  // repost of the same PSN
  EXPECT_EQ(tracer.stats().spans_opened, 1u);
  EXPECT_EQ(tracer.stats().retransmits, 2u);
  tracer.end_op(t, roce::Psn(7));

  const auto doc = json::parse(tracer.chrome_trace_json());
  for (const auto& e : doc.at("traceEvents").array()) {
    if (e.at("ph").string() != "X") continue;
    EXPECT_EQ(e.at("args").at("retransmits").number(), 2.0);
    EXPECT_EQ(e.at("args").at("nak").string(), "sequence_error");
    EXPECT_EQ(e.at("args").at("status").string(), "ok");
  }
}

TEST(OpTracer, OpenSpansExportWithOpenStatus) {
  sim::Simulator sim;
  OpTracer tracer(sim);
  const int t = tracer.track("chan0");
  tracer.begin_op(t, "READ", roce::Psn(1), 64);
  sim.schedule_in(sim::microseconds(5), []() {});
  sim.run();

  const auto doc = json::parse(tracer.chrome_trace_json());
  bool found = false;
  for (const auto& e : doc.at("traceEvents").array()) {
    if (e.at("ph").string() != "X") continue;
    found = true;
    EXPECT_EQ(e.at("args").at("status").string(), "open");
    EXPECT_EQ(e.at("dur").number(), 5.0) << "open span runs up to sim-now";
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(tracer.open_spans(), 1u) << "export does not close spans";
}

TEST(OpTracer, MetadataEvents) {
  sim::Simulator sim;
  OpTracer tracer(sim, "myproc");
  (void)tracer.track("qp0");

  const auto doc = json::parse(tracer.chrome_trace_json());
  bool process_named = false;
  bool thread_named = false;
  for (const auto& e : doc.at("traceEvents").array()) {
    const auto& ph = e.at("ph").string();
    if (ph == "M" && e.at("name").string() == "process_name") {
      process_named = e.at("args").at("name").string() == "myproc";
    }
    if (ph == "M" && e.at("name").string() == "thread_name") {
      thread_named = e.at("args").at("name").string() == "qp0";
    }
  }
  EXPECT_TRUE(process_named);
  EXPECT_TRUE(thread_named);
}

// --- Integration: primitives under telemetry ------------------------------

class TelemetryIntegrationTest : public ::testing::Test {
 protected:
  static void drive_traffic(control::Testbed& tb, std::uint64_t packets) {
    host::PacketSink sink(tb.host(1));
    host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                         .dst_ip = tb.host(1).ip(),
                                         .src_port = 7000,
                                         .dst_port = 9000,
                                         .frame_size = 256,
                                         .rate = sim::gbps(5),
                                         .packet_limit = packets});
    gen.start();
    tb.sim().run();
  }
};

TEST_F(TelemetryIntegrationTest, SnapshotExposesEveryPrimitiveStatsField) {
  control::Testbed tb;
  MetricsRegistry reg;
  OpTracer tracer(tb.sim());

  auto ss_chan = tb.controller().setup_channel(tb.host(2), tb.port_of(2),
                                               {.region_bytes = 4096});
  core::StateStorePrimitive ss(tb.tor(), ss_chan, {});
  ss.attach_telemetry(&reg, &tracer, "switch0/statestore");

  auto pb_chan = tb.controller().setup_channel(tb.host(2), tb.port_of(2),
                                               {.region_bytes = 1 << 20});
  core::PacketBufferPrimitive pb(tb.tor(), pb_chan,
                                 {.watch_port = tb.port_of(1)});
  pb.attach_telemetry(&reg, &tracer, "switch0/pktbuf");

  std::map<std::string, Sample> by_name;
  for (auto& s : reg.snapshot()) by_name.emplace(s.name, s);

  // Every RdmaChannel::Stats field (via each primitive's channel).
  for (const char* field : {"writes_sent", "reads_sent", "atomics_sent",
                            "request_bytes", "payload_bytes"}) {
    EXPECT_TRUE(by_name.count("switch0/statestore/shard0/" + std::string(field)))
        << field;
    EXPECT_TRUE(by_name.count("switch0/pktbuf/shard0/" + std::string(field)))
        << field;
  }
  // Every StateStorePrimitive::Stats field.
  for (const char* field :
       {"sampled_packets", "fetch_adds_sent", "acks_received",
        "naks_received", "accumulated", "retransmits", "max_outstanding_seen",
        "counts_in_flight_lost"}) {
    EXPECT_TRUE(by_name.count("switch0/statestore/" + std::string(field)))
        << field;
  }
  // Every PacketBufferPrimitive::Stats field.
  for (const char* field :
       {"stored", "loaded", "ring_full_drops", "lost_loads", "read_retries",
        "naks", "ecn_marked", "max_ring_depth"}) {
    EXPECT_TRUE(by_name.count("switch0/pktbuf/" + std::string(field)))
        << field;
  }
}

TEST_F(TelemetryIntegrationTest, CountersTrackPrimitiveActivity) {
  control::Testbed tb;
  MetricsRegistry reg;
  OpTracer tracer(tb.sim());
  auto channel = tb.controller().setup_channel(tb.host(2), tb.port_of(2),
                                               {.region_bytes = 4096});
  core::StateStorePrimitive ss(tb.tor(), channel, {});
  ss.attach_telemetry(&reg, &tracer, "ss");

  drive_traffic(tb, 50);

  EXPECT_EQ(reg.read("ss/sampled_packets"),
            static_cast<double>(ss.stats().sampled_packets));
  EXPECT_GT(reg.read("ss/fetch_adds_sent"), 0.0);
  EXPECT_EQ(reg.read("ss/shard0/atomics_sent"),
            reg.read("ss/fetch_adds_sent"));
  // Every atomic got a span, and all of them closed on their AtomicAck.
  EXPECT_EQ(tracer.stats().spans_opened, ss.stats().fetch_adds_sent);
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(reg.read("ss/outstanding"), 0.0);
}

TEST_F(TelemetryIntegrationTest, NakCloseTaggedWithCause) {
  control::Testbed tb;
  MetricsRegistry reg;
  OpTracer tracer(tb.sim());
  auto channel = tb.controller().setup_channel(tb.host(2), tb.port_of(2),
                                               {.region_bytes = 4096});
  // Sample every data packet to an out-of-range counter index: each F&A
  // targets memory beyond the registered region and the responder answers
  // kNakRemoteAccessError.
  core::StateStorePrimitive ss(
      tb.tor(), channel,
      {.sample_fn = [](const net::Packet& p) -> std::optional<std::uint64_t> {
        auto tuple = net::extract_five_tuple(p);
        if (!tuple || tuple->dst_port == net::kRoceV2Port) return std::nullopt;
        return 100000;  // far past the 512-counter region
      }});
  ss.attach_telemetry(&reg, &tracer, "ss");

  drive_traffic(tb, 5);
  tb.sim().run();

  EXPECT_GT(ss.stats().naks_received, 0u);
  const auto doc = json::parse(tracer.chrome_trace_json());
  std::uint64_t nak_spans = 0;
  for (const auto& e : doc.at("traceEvents").array()) {
    if (e.at("ph").string() != "X") continue;
    if (e.at("args").at("status").string() == "nak:remote_access_error") {
      ++nak_spans;
    }
  }
  EXPECT_EQ(nak_spans, ss.stats().naks_received)
      << "each NAKed op closes exactly once, tagged with its cause";
  EXPECT_EQ(tracer.stats().duplicate_closes, 0u);
}

TEST_F(TelemetryIntegrationTest, IdenticalRunsProduceByteIdenticalSnapshots) {
  auto run_once = []() {
    control::Testbed tb;
    MetricsRegistry reg;
    OpTracer tracer(tb.sim());
    auto channel = tb.controller().setup_channel(tb.host(2), tb.port_of(2),
                                                 {.region_bytes = 4096});
    core::StateStorePrimitive ss(tb.tor(), channel, {});
    ss.attach_telemetry(&reg, &tracer, "switch0/statestore");
    tb.tor().register_metrics(reg, "switch0");
    tb.link_of(2).register_metrics(reg, "links/mem");
    tb.host(2).rnic().register_metrics(reg, "rnic2");

    host::PacketSink sink(tb.host(1));
    host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                         .dst_ip = tb.host(1).ip(),
                                         .src_port = 7000,
                                         .dst_port = 9000,
                                         .frame_size = 512,
                                         .rate = sim::gbps(10),
                                         .packet_limit = 200});
    gen.start();
    tb.sim().run();
    return std::pair<std::string, std::string>{reg.to_json(),
                                               tracer.chrome_trace_json()};
  };

  const auto [json1, trace1] = run_once();
  const auto [json2, trace2] = run_once();
  EXPECT_EQ(json1, json2) << "deterministic snapshot bytes";
  EXPECT_EQ(trace1, trace2) << "deterministic trace bytes";
}

}  // namespace
}  // namespace xmem::telemetry
