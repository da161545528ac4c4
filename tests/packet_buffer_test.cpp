// Integration tests for the remote packet-buffer primitive: divert
// thresholds, FIFO-order preservation through remote DRAM, ring
// exhaustion, loss behaviour with and without the reliability extension,
// the zero-CPU property, and pinned failover runs over one and two
// stripes in each reliability mode.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "control/testbed.hpp"
#include "core/packet_buffer.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/ethernet.hpp"
#include "net/flow.hpp"
#include "net/ipv4.hpp"
#include "net/udp.hpp"
#include "rnic/rnic.hpp"

namespace xmem::core {
namespace {

using control::Testbed;

// Topology: h0, h1 senders; h2 receiver (the congested egress); h3 and
// h4 remote memory servers. All links 40 Gb/s, so two senders
// oversubscribe the receiver and the diverted aggregate is striped over
// two servers (one 34 Gb/s-class RNIC cannot absorb the whole flow —
// exactly why §2.1 says "one or multiple servers").
class PacketBufferTest : public ::testing::Test {
 protected:
  static Testbed::Config testbed_config() {
    Testbed::Config cfg;
    cfg.hosts = 5;
    return cfg;
  }

  PacketBufferTest() : tb_(testbed_config()) {
    for (int server : {3, 4}) {
      channels_.push_back(tb_.controller().setup_channel(
          tb_.host(server), tb_.port_of(server),
          {.region_bytes = 8 * static_cast<std::size_t>(sim::kMiB)}));
    }
    channel_ = channels_.front();
  }

  /// A primitive over the first `stripes` servers of the pool.
  PacketBufferPrimitive& make_primitive(PacketBufferPrimitive::Config cfg,
                                        std::size_t stripes = 2) {
    cfg.watch_port = tb_.port_of(2);
    primitive_ = std::make_unique<PacketBufferPrimitive>(
        tb_.tor(),
        std::vector<control::RdmaChannelConfig>(
            channels_.begin(),
            channels_.begin() + static_cast<std::ptrdiff_t>(stripes)),
        cfg);
    return *primitive_;
  }

  /// Two synchronized bursts toward h2. Senders run at 30 Gb/s each:
  /// 60 Gb/s into a 40 Gb/s drain oversubscribes the egress queue, while
  /// the 20 Gb/s divert surplus stays within what one memory server's
  /// RNIC can absorb (the full 8-uplink case stripes across servers; see
  /// bench/f1a_incast).
  void run_incast(std::int64_t bytes_per_sender) {
    host::IncastCoordinator incast(
        {&tb_.host(0), &tb_.host(1)},
        {.dst_mac = tb_.host(2).mac(),
         .dst_ip = tb_.host(2).ip(),
         .frame_size = 1500,
         .burst_bytes_per_sender = bytes_per_sender,
         .sender_rate = sim::gbps(30)});
    incast.start(sim::microseconds(1));
    tb_.sim().run();
  }

  Testbed tb_;
  std::vector<control::RdmaChannelConfig> channels_;
  control::RdmaChannelConfig channel_;  // first stripe (single-server tests)
  std::unique_ptr<PacketBufferPrimitive> primitive_;
};

TEST_F(PacketBufferTest, QuietTrafficNeverDiverts) {
  auto& pb = make_primitive({.divert_threshold_bytes = 100 * 1500});
  host::PacketSink sink(tb_.host(2));
  host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(2).mac(),
                                        .dst_ip = tb_.host(2).ip(),
                                        .frame_size = 1500,
                                        .rate = sim::gbps(10),
                                        .packet_limit = 200});
  gen.start();
  tb_.sim().run();
  EXPECT_EQ(sink.packets(), 200u);
  EXPECT_EQ(pb.stats().stored, 0u);
  EXPECT_FALSE(pb.diverting());
}

TEST_F(PacketBufferTest, OversubscriptionDivertsAndDeliversEverything) {
  auto& pb = make_primitive({.divert_threshold_bytes = 40 * 1500,
                             .resume_threshold_bytes = 10 * 1500});
  host::PacketSink sink(tb_.host(2));
  run_incast(3'000'000);  // 6 MB total into a 40 Gb/s drain

  EXPECT_GT(pb.stats().stored, 0u) << "queue buildup must trigger diverts";
  EXPECT_EQ(pb.stats().stored, pb.stats().loaded);
  EXPECT_EQ(pb.stats().ring_full_drops, 0u);
  EXPECT_EQ(pb.stats().lost_loads, 0u);
  EXPECT_EQ(tb_.tor().tm().total_drops(), 0u) << "remote buffer absorbs all";
  EXPECT_EQ(sink.packets(), 4000u);  // 6 MB / 1500 B
  EXPECT_EQ(sink.missing(), 0u);
  EXPECT_FALSE(pb.diverting()) << "ring fully drained at the end";
  EXPECT_EQ(pb.ring_depth(), 0);
  // Memory server CPU untouched (Goal #2).
  EXPECT_EQ(tb_.host(3).cpu_packets(), 0u);
}

TEST_F(PacketBufferTest, BaselineWithoutPrimitiveDropsTheSameWorkload) {
  // Control experiment: a small shared buffer and no primitive.
  Testbed::Config cfg;
  cfg.hosts = 4;
  cfg.switch_config.tm.shared_buffer_bytes = 60 * 1500;
  Testbed tb(cfg);
  host::PacketSink sink(tb.host(2));
  host::IncastCoordinator incast({&tb.host(0), &tb.host(1)},
                                 {.dst_mac = tb.host(2).mac(),
                                  .dst_ip = tb.host(2).ip(),
                                  .frame_size = 1500,
                                  .burst_bytes_per_sender = 3'000'000});
  incast.start(sim::microseconds(1));
  tb.sim().run();
  EXPECT_GT(tb.tor().tm().total_drops(), 0u);
  EXPECT_LT(sink.packets(), 4000u);
}

TEST_F(PacketBufferTest, RingExhaustionDropsExcess) {
  // A deliberately tiny remote ring (64 kB = 32 slots).
  auto small = tb_.controller().setup_channel(tb_.host(3), tb_.port_of(3),
                                              {.region_bytes = 64 * 1024});
  PacketBufferPrimitive::Config cfg;
  cfg.watch_port = tb_.port_of(2);
  cfg.divert_threshold_bytes = 10 * 1500;
  cfg.resume_threshold_bytes = 2 * 1500;
  PacketBufferPrimitive pb(tb_.tor(), small, cfg);
  EXPECT_EQ(pb.ring_capacity(), 32u);

  host::PacketSink sink(tb_.host(2));
  run_incast(3'000'000);
  EXPECT_GT(pb.stats().ring_full_drops, 0u);
  EXPECT_EQ(sink.packets() + pb.stats().ring_full_drops +
                tb_.tor().tm().total_drops(),
            4000u);
}

TEST_F(PacketBufferTest, LossyMemoryLinkLosesOnlyAffectedPackets) {
  auto& pb = make_primitive({.divert_threshold_bytes = 40 * 1500,
                             .resume_threshold_bytes = 10 * 1500});
  tb_.link_of(3).set_loss_rate(0.02, 23);  // both directions
  host::PacketSink sink(tb_.host(2));
  run_incast(1'500'000);

  // Some packets are gone (lost WRITEs or lost READ data), but the run
  // terminates and everything else arrives.
  EXPECT_GT(sink.packets(), 0u);
  EXPECT_LT(sink.packets(), 2000u);
  EXPECT_FALSE(pb.diverting());
  const std::uint64_t lost = 2000u - sink.packets();
  EXPECT_LE(pb.stats().lost_loads, lost);
}

TEST_F(PacketBufferTest, ReliableLoadsRecoverResponseLoss) {
  auto& pb = make_primitive({.divert_threshold_bytes = 40 * 1500,
                             .resume_threshold_bytes = 10 * 1500,
                             .reliable_loads = true,
                             .read_timeout = sim::microseconds(300)});
  // Drop only server->switch frames (READ responses); WRITE requests and
  // READ requests stay intact, so every packet is recoverable.
  tb_.link_of(3).set_loss_rate(0.05, 29, /*direction=*/1);
  host::PacketSink sink(tb_.host(2));
  run_incast(1'500'000);

  EXPECT_EQ(sink.packets(), 2000u);
  EXPECT_EQ(sink.missing(), 0u);
  EXPECT_GT(pb.stats().read_retries, 0u);
  EXPECT_EQ(pb.stats().lost_loads, 0u);
}

TEST_F(PacketBufferTest, SingleSenderOrderPreservedThroughRemoteBuffer) {
  // Force diverting with a *zero* threshold so even one sender's stream
  // takes the remote path, then verify strict FIFO delivery.
  auto& pb = make_primitive({.divert_threshold_bytes = 0,
                             .resume_threshold_bytes = 10 * 1500});
  host::PacketSink sink(tb_.host(2));
  host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(2).mac(),
                                        .dst_ip = tb_.host(2).ip(),
                                        .frame_size = 1500,
                                        .rate = sim::gbps(20),
                                        .packet_limit = 500});
  gen.start();
  tb_.sim().run();
  EXPECT_EQ(pb.stats().stored, 500u);
  EXPECT_EQ(sink.packets(), 500u);
  EXPECT_EQ(sink.reordered(), 0u) << "FIFO order through the ring";
  EXPECT_EQ(sink.missing(), 0u);
  // Every arriving packet took the remote path.
  EXPECT_EQ(pb.stats().loaded, 500u);
}

TEST_F(PacketBufferTest, StripingAcrossTwoServersPreservesOrder) {
  // Use h1 AND h3 as memory servers; only h0 sends, straight into the
  // ring (zero threshold), so order must survive the round-robin stripe.
  auto chan_a = tb_.controller().setup_channel(tb_.host(3), tb_.port_of(3),
                                               {.region_bytes = 1 << 20});
  auto chan_b = tb_.controller().setup_channel(tb_.host(1), tb_.port_of(1),
                                               {.region_bytes = 1 << 20});
  PacketBufferPrimitive::Config cfg;
  cfg.watch_port = tb_.port_of(2);
  cfg.divert_threshold_bytes = 0;
  cfg.resume_threshold_bytes = 10 * 1500;
  PacketBufferPrimitive pb(tb_.tor(), {chan_a, chan_b}, cfg);
  EXPECT_EQ(pb.stripe_width(), 2u);
  EXPECT_EQ(pb.ring_capacity(), 2 * ((1u << 20) / 2048));

  host::PacketSink sink(tb_.host(2));
  host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(2).mac(),
                                        .dst_ip = tb_.host(2).ip(),
                                        .frame_size = 1500,
                                        .rate = sim::gbps(30),
                                        .packet_limit = 400});
  gen.start();
  tb_.sim().run();
  EXPECT_EQ(sink.packets(), 400u);
  EXPECT_EQ(sink.reordered(), 0u);
  EXPECT_EQ(sink.missing(), 0u);
  // Both stripes carried writes.
  EXPECT_EQ(pb.channel(0).stats().writes_sent, 200u);
  EXPECT_EQ(pb.channel(1).stats().writes_sent, 200u);
}

TEST_F(PacketBufferTest, LoadGatingSeparatesStoreAndLoadPhases) {
  auto& pb = make_primitive({.divert_threshold_bytes = 0,
                             .resume_threshold_bytes = 20 * 1500,
                             .load_enabled = false});
  host::PacketSink sink(tb_.host(2));
  host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(2).mac(),
                                        .dst_ip = tb_.host(2).ip(),
                                        .frame_size = 1500,
                                        .rate = sim::gbps(20),
                                        .packet_limit = 100});
  gen.start();
  tb_.sim().run();
  EXPECT_EQ(pb.stats().stored, 100u);
  EXPECT_EQ(pb.stats().loaded, 0u) << "load path gated";
  EXPECT_EQ(sink.packets(), 0u);

  pb.set_load_enabled(true);
  tb_.sim().run();
  EXPECT_EQ(pb.stats().loaded, 100u);
  EXPECT_EQ(sink.packets(), 100u);
  EXPECT_EQ(sink.reordered(), 0u);
}

TEST_F(PacketBufferTest, MaxRingDepthTracksBacklog) {
  auto& pb = make_primitive({.divert_threshold_bytes = 20 * 1500,
                             .resume_threshold_bytes = 5 * 1500});
  run_incast(1'500'000);
  EXPECT_GT(pb.stats().max_ring_depth, 10);
  EXPECT_LE(pb.stats().max_ring_depth,
            static_cast<std::int64_t>(pb.ring_capacity()));
}

// Failover pins. One sender streams 3,000 1,000 B frames at 8 Gb/s
// straight into the ring (zero divert threshold) while h3's RNIC hangs
// from 0.3 to 1.5 ms (frames blackholed, queue pair and DRAM kept) and
// then revives. Each case pins the event count, an FNV-1a digest of the
// sink's arrival order and every Stats field. Only a one-stripe pool
// reaches deferred stores: with reliable stores over two stripes, the
// live stripe's ACKs count as progress, so the hung stripe is never
// marked down.
enum class Mode { kBestEffort, kReliableLoads, kReliable };

struct FailoverOutcome {
  std::uint64_t events = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t order_digest = 0;  // over each arrival's probe header
  std::string stats;
};

/// Every Stats field as `name=value` pairs, so a pin mismatch names the
/// field that moved.
std::string stats_text(const PacketBufferPrimitive::Stats& s) {
  std::ostringstream out;
  out << "stored=" << s.stored << " loaded=" << s.loaded
      << " ring_full_drops=" << s.ring_full_drops
      << " lost_loads=" << s.lost_loads << " read_retries=" << s.read_retries
      << " write_retries=" << s.write_retries
      << " deferred_stores=" << s.deferred_stores << " naks=" << s.naks
      << " ecn_marked=" << s.ecn_marked
      << " dead_stripe_drops=" << s.dead_stripe_drops
      << " duplicate_responses=" << s.duplicate_responses
      << " max_ring_depth=" << s.max_ring_depth;
  return out.str();
}

class PacketBufferFailoverTest : public PacketBufferTest {
 protected:
  FailoverOutcome run_failover(std::size_t stripes, Mode mode) {
    auto& pb = make_primitive(
        {.divert_threshold_bytes = 0,
         .resume_threshold_bytes = 15'000,
         .reliable_stores = mode == Mode::kReliable,
         .reliable_loads = mode != Mode::kBestEffort,
         .read_timeout = sim::microseconds(100)},
        stripes);
    FailoverOutcome out;
    out.order_digest = net::fnv1a({});
    host::PacketSink sink(tb_.host(2));
    sink.set_on_packet([&out](const net::Packet& p) {
      constexpr std::size_t kProbeAt = net::kEthernetHeaderBytes +
                                       net::kIpv4HeaderBytes +
                                       net::kUdpHeaderBytes;
      out.order_digest = net::fnv1a(
          p.bytes().subspan(kProbeAt, host::ProbeHeader::kBytes),
          out.order_digest);
    });
    rnic::Rnic& nic = tb_.host(3).rnic();
    tb_.sim().schedule_at(sim::microseconds(300),
                          [&nic]() { nic.set_alive(false); });
    tb_.sim().schedule_at(sim::microseconds(1500),
                          [&nic]() { nic.set_alive(true); });
    host::CbrTrafficGen gen(tb_.host(0), {.dst_mac = tb_.host(2).mac(),
                                          .dst_ip = tb_.host(2).ip(),
                                          .frame_size = 1000,
                                          .rate = sim::gbps(8),
                                          .packet_limit = 3000});
    gen.start();
    tb_.sim().run();

    EXPECT_TRUE(pb.quiescent());
    EXPECT_FALSE(pb.diverting());
    // Every stored entry was either re-injected or counted lost.
    EXPECT_EQ(pb.stats().loaded + pb.stats().lost_loads, pb.stats().stored);
    out.events = tb_.sim().events_executed();
    out.arrivals = sink.packets();
    out.stats = stats_text(pb.stats());
    return out;
  }

  static void expect_pinned(const FailoverOutcome& got,
                            const FailoverOutcome& want) {
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.arrivals, want.arrivals);
    EXPECT_EQ(got.order_digest, want.order_digest);
    EXPECT_EQ(got.stats, want.stats);
  }
};

TEST_F(PacketBufferFailoverTest, OneStripeBestEffort) {
  expect_pinned(run_failover(1, Mode::kBestEffort),
                {31342u, 1696u, 0xba8bafab7834ff94u,
                 "stored=1998 loaded=1696 ring_full_drops=0 lost_loads=302 "
                 "read_retries=0 write_retries=0 deferred_stores=0 naks=0 "
                 "ecn_marked=0 dead_stripe_drops=1002 duplicate_responses=0 "
                 "max_ring_depth=286"});
}

TEST_F(PacketBufferFailoverTest, OneStripeReliableLoads) {
  expect_pinned(run_failover(1, Mode::kReliableLoads),
                {33166u, 1697u, 0x56625213e627ed99u,
                 "stored=1998 loaded=1697 ring_full_drops=0 lost_loads=301 "
                 "read_retries=24 write_retries=0 deferred_stores=0 naks=0 "
                 "ecn_marked=0 dead_stripe_drops=1002 duplicate_responses=0 "
                 "max_ring_depth=1305"});
}

TEST_F(PacketBufferFailoverTest, OneStripeReliable) {
  expect_pinned(run_failover(1, Mode::kReliable),
                {55943u, 3000u, 0xa79576a765162e38u,
                 "stored=3000 loaded=3000 ring_full_drops=0 lost_loads=0 "
                 "read_retries=14 write_retries=929 deferred_stores=1002 "
                 "naks=0 ecn_marked=0 dead_stripe_drops=0 "
                 "duplicate_responses=0 max_ring_depth=2702"});
}

TEST_F(PacketBufferFailoverTest, TwoStripesBestEffort) {
  expect_pinned(run_failover(2, Mode::kBestEffort),
                {36872u, 2198u, 0xd33bb5abc87c5a55u,
                 "stored=2499 loaded=2198 ring_full_drops=0 lost_loads=301 "
                 "read_retries=0 write_retries=0 deferred_stores=0 naks=0 "
                 "ecn_marked=0 dead_stripe_drops=501 duplicate_responses=0 "
                 "max_ring_depth=570"});
}

TEST_F(PacketBufferFailoverTest, TwoStripesReliableLoads) {
  expect_pinned(run_failover(2, Mode::kReliableLoads),
                {38980u, 2299u, 0x8c53136ea9ad066fu,
                 "stored=2499 loaded=2299 ring_full_drops=0 lost_loads=200 "
                 "read_retries=24 write_retries=0 deferred_stores=0 naks=0 "
                 "ecn_marked=0 dead_stripe_drops=501 duplicate_responses=0 "
                 "max_ring_depth=1405"});
}

TEST_F(PacketBufferFailoverTest, TwoStripesReliable) {
  expect_pinned(run_failover(2, Mode::kReliable),
                {55337u, 3000u, 0xa79576a765162e38u,
                 "stored=3000 loaded=3000 ring_full_drops=0 lost_loads=0 "
                 "read_retries=8 write_retries=635 deferred_stores=0 naks=0 "
                 "ecn_marked=0 dead_stripe_drops=0 duplicate_responses=0 "
                 "max_ring_depth=2702"});
}

TEST_F(PacketBufferTest, RejectsInvalidConfigsAtConstruction) {
  EXPECT_THROW(PacketBufferPrimitive(tb_.tor(), channels_, {}),
               std::invalid_argument);  // no watched port
  EXPECT_THROW(
      PacketBufferPrimitive(tb_.tor(), channels_,
                            {.watch_port = tb_.port_of(2),
                             .entry_bytes = 4 + net::kEthernetMinFrame - 1}),
      std::invalid_argument);
}

}  // namespace
}  // namespace xmem::core
