// Sharding and failover tests for core::ChannelSet and the pool plumbing
// around it: deterministic modulo routing over a multi-server pool,
// rebalance-free exclusion of a down shard, single-server pools behaving
// exactly like the pre-sharding code, and the headline scenario — killing
// one memory server's RNIC mid-run flips its shard down, traffic keeps
// flowing over the survivors, and the shard recovers when the RNIC comes
// back, all visible in per-shard telemetry.
#include <gtest/gtest.h>

#include <set>

#include "control/testbed.hpp"
#include "core/channel_set.hpp"
#include "core/lookup_table.hpp"
#include "core/packet_buffer.hpp"
#include "core/state_store.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/flow.hpp"
#include "telemetry/metrics.hpp"

namespace xmem::core {
namespace {

using control::ChannelController;
using control::Testbed;

class ChannelSetTest : public ::testing::Test {
 protected:
  /// Two traffic hosts (h0 -> h1) plus `servers` memory servers.
  void build(int servers) {
    Testbed::Config cfg;
    cfg.hosts = 2;
    cfg.memory_servers = servers;
    tb_ = std::make_unique<Testbed>(cfg);
  }

  std::vector<control::RdmaChannelConfig> pool(std::size_t region_bytes,
                                               bool strict = false) {
    ChannelController::ChannelSpec spec;
    spec.region_bytes = region_bytes;
    spec.tolerate_psn_gaps = !strict;
    return tb_->setup_memory_pool(spec);
  }

  /// Sampler assigning packets to counters round-robin over `n` indices
  /// (so every shard sees traffic), skipping the primitive's own RoCE.
  static StateStorePrimitive::SampleFn round_robin(std::uint64_t n) {
    auto next = std::make_shared<std::uint64_t>(0);
    return [n, next](const net::Packet& p) -> std::optional<std::uint64_t> {
      auto tuple = net::extract_five_tuple(p);
      if (!tuple || tuple->dst_port == net::kRoceV2Port) return std::nullopt;
      return (*next)++ % n;
    };
  }

  void send_packets(std::uint64_t count, sim::Bandwidth rate = sim::gbps(10)) {
    host::CbrTrafficGen gen(tb_->host(0), {.dst_mac = tb_->host(1).mac(),
                                           .dst_ip = tb_->host(1).ip(),
                                           .src_port = 7000,
                                           .dst_port = 9000,
                                           .frame_size = 128,
                                           .rate = rate,
                                           .packet_limit = count});
    gen.start();
    tb_->sim().run();
  }

  void settle(StateStorePrimitive& ss) {
    for (int i = 0; i < 50 && !ss.quiescent(); ++i) {
      ss.flush();
      tb_->sim().run_until(tb_->sim().now() + sim::milliseconds(1));
      tb_->sim().run();
    }
  }

  /// Sum one memory server's whole counter region.
  std::uint64_t region_total(int server,
                             const control::RdmaChannelConfig& cfg) {
    auto region =
        ChannelController::region_bytes(tb_->memory_server(server), cfg);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i + 8 <= region.size(); i += 8) {
      total += rnic::load_le64(region.subspan(i, 8));
    }
    return total;
  }

  std::unique_ptr<Testbed> tb_;
};

TEST_F(ChannelSetTest, PoolProvisionsOneDistinctChannelPerServer) {
  build(4);
  auto configs = pool(4096);
  ASSERT_EQ(configs.size(), 4u);

  std::set<std::uint32_t> switch_qpns;
  std::set<std::uint16_t> udp_ports;
  for (int i = 0; i < 4; ++i) {
    // Shard order must match server order: shard i's channel terminates
    // at memory server i.
    EXPECT_EQ(configs[i].remote.ip, tb_->memory_server(i).ip()) << i;
    EXPECT_EQ(configs[i].switch_port, tb_->memory_server_port(i)) << i;
    switch_qpns.insert(configs[i].local_qpn);
    udp_ports.insert(configs[i].local.udp_port);
  }
  EXPECT_EQ(switch_qpns.size(), 4u) << "each channel needs its own QPN";
  EXPECT_EQ(udp_ports.size(), 4u);
}

TEST_F(ChannelSetTest, RoutesByStableModuloHash) {
  build(4);
  ChannelSet set(tb_->tor(), pool(4096));
  ASSERT_EQ(set.size(), 4u);
  EXPECT_EQ(set.up_count(), 4u);

  for (std::uint64_t key = 0; key < 64; ++key) {
    const std::size_t home = set.home_shard(key);
    EXPECT_EQ(home, key % 4) << "placement is the modulo the control "
                                "plane used to populate the shards";
    auto routed = set.route(key);
    ASSERT_TRUE(routed.has_value());
    EXPECT_EQ(*routed, home);
  }
  // 64 keys round-robin over 4 shards: 16 ops each, and the per-shard
  // stats account for every one of them.
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(set.shard_stats(s).ops_routed, 16u);
    EXPECT_EQ(set.shard_stats(s).routed_while_down, 0u);
  }
}

TEST_F(ChannelSetTest, DownShardIsExcludedNotRebalanced) {
  build(4);
  ChannelSet set(tb_->tor(), pool(4096));

  // Three consecutive timeout observations trip the default threshold.
  set.note_timeout(2);
  set.note_timeout(2);
  EXPECT_TRUE(set.is_up(2)) << "below threshold";
  set.note_timeout(2);
  EXPECT_FALSE(set.is_up(2));
  EXPECT_EQ(set.up_count(), 3u);
  EXPECT_EQ(set.shard_stats(2).down_transitions, 1u);

  // Keys homed on the dead shard are refused — never rehashed onto a
  // survivor, whose regions do not hold their data.
  for (std::uint64_t key = 0; key < 16; ++key) {
    auto routed = set.route(key);
    if (key % 4 == 2) {
      EXPECT_FALSE(routed.has_value());
    } else {
      ASSERT_TRUE(routed.has_value());
      EXPECT_EQ(*routed, key % 4) << "survivors keep their own keys only";
    }
  }
  EXPECT_EQ(set.shard_stats(2).routed_while_down, 4u);

  // A response from the shard (here: an out-of-band ok) revives it.
  set.note_ok(2);
  EXPECT_TRUE(set.is_up(2));
  EXPECT_EQ(set.shard_stats(2).up_transitions, 1u);
  EXPECT_TRUE(set.route(2).has_value());
}

TEST_F(ChannelSetTest, BenignNaksProveLivenessOnlyBrokenNaksKill) {
  build(2);
  ChannelSet set(tb_->tor(), pool(4096));

  // Sequence-error NAKs are go-back-N business as usual: any number of
  // them must not kill the shard, and they clear the timeout streak.
  set.note_timeout(0);
  set.note_timeout(0);
  for (int i = 0; i < 50; ++i) {
    set.note_nak(0, roce::AckSyndrome::kNakSequenceError);
  }
  set.note_timeout(0);  // streak was reset: this is 1 of 3, not 3 of 3
  EXPECT_TRUE(set.is_up(0));

  // Remote access errors mean the responder is alive but broken.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(set.is_up(0));
    set.note_nak(0, roce::AckSyndrome::kNakRemoteAccessError);
  }
  EXPECT_FALSE(set.is_up(0));
}

TEST_F(ChannelSetTest, SingleServerPoolMatchesPreShardBehaviour) {
  build(1);
  auto configs = pool(4096);
  StateStorePrimitive ss(tb_->tor(), configs,
                         {.sample_fn = round_robin(8)});
  host::PacketSink sink(tb_->host(1));
  send_packets(500);
  settle(ss);

  EXPECT_EQ(ss.shard_count(), 1u);
  EXPECT_EQ(ss.stats().sampled_packets, 500u);
  EXPECT_EQ(region_total(0, configs[0]), 500u) << "still exact";
  EXPECT_EQ(sink.packets(), 500u);
  // With one shard the per-shard stats ARE the primitive totals: every
  // F&A the primitive sent was routed through shard 0.
  EXPECT_EQ(ss.channels().shard_stats(0).ops_routed,
            ss.stats().fetch_adds_sent);
  EXPECT_EQ(ss.channels().shard_stats(0).routed_while_down, 0u);
  EXPECT_EQ(ss.channels().shard_stats(0).down_transitions, 0u);
}

TEST_F(ChannelSetTest, ShardedStateStoreSplitsCountersAcrossServers) {
  build(4);
  auto configs = pool(4096);
  StateStorePrimitive ss(tb_->tor(), configs,
                         {.sample_fn = round_robin(8)});
  host::PacketSink sink(tb_->host(1));
  send_packets(800);
  settle(ss);

  // 800 packets round-robin over counters 0..7; counter i lives on shard
  // i % 4, so each server holds exactly two counters x 100 counts.
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(region_total(s, configs[static_cast<std::size_t>(s)]), 200u)
        << "server " << s;
  }
  EXPECT_EQ(sink.packets(), 800u);
  EXPECT_TRUE(ss.quiescent());
}

TEST_F(ChannelSetTest, RnicKillMidRunFailsOverAndRecovers) {
  build(4);
  auto configs = pool(4096);
  telemetry::MetricsRegistry reg;
  StateStorePrimitive ss(tb_->tor(), configs,
                         {.sample_fn = round_robin(8)});
  ss.attach_telemetry(&reg, nullptr, "ss");
  host::PacketSink sink(tb_->host(1));

  // 4000 packets at 10 Gb/s take ~440 us. Kill server 1's RNIC a quarter
  // of the way in — the firmware-hang model: frames blackholed, queue
  // pair and memory preserved — and revive it after ~150 us of outage.
  tb_->sim().schedule_at(sim::microseconds(100), [&]() {
    tb_->memory_server(1).rnic().set_alive(false);
  });
  tb_->sim().schedule_at(sim::microseconds(250), [&]() {
    tb_->memory_server(1).rnic().set_alive(true);
  });
  send_packets(4000);
  settle(ss);

  // The outage flipped shard 1 down (stale atomics -> consecutive
  // timeouts) and the probe loop flipped it back up after revival.
  const auto& st = ss.channels().shard_stats(1);
  EXPECT_EQ(st.down_transitions, 1u);
  EXPECT_EQ(st.up_transitions, 1u);
  EXPECT_GT(st.timeouts, 0u);
  EXPECT_GT(st.probes_sent, 0u);
  EXPECT_GT(st.routed_while_down, 0u) << "traffic kept arriving while down";
  EXPECT_GT(ss.channels().outage(1), 0);
  EXPECT_TRUE(ss.channels().is_up(1));

  // Per-shard telemetry recorded the transition.
  EXPECT_EQ(reg.read("ss/shard1/down_transitions"), 1.0);
  EXPECT_EQ(reg.read("ss/shard1/up_transitions"), 1.0);
  EXPECT_EQ(reg.read("ss/shard1/health"), 1.0);
  EXPECT_EQ(reg.read("ss/up_shards"), 4.0);
  EXPECT_GT(reg.read("ss/shard1/failover_duration"), 0.0);

  // Traffic continued: nothing crashed, every packet reached the sink,
  // and the survivors never went down.
  EXPECT_EQ(sink.packets(), 4000u);
  for (std::size_t s : {0u, 2u, 3u}) {
    EXPECT_EQ(ss.channels().shard_stats(s).down_transitions, 0u) << s;
  }

  // Accounting across the failover: counts recorded while shard 1 was
  // down accumulated locally and flushed on recovery; only atomics in
  // flight at the moment of death may be lost (default best-effort
  // mode). Everything else must land.
  std::uint64_t landed = 0;
  for (int s = 0; s < 4; ++s) {
    landed += region_total(s, configs[static_cast<std::size_t>(s)]);
  }
  EXPECT_EQ(landed + ss.stats().counts_in_flight_lost, 4000u);
  EXPECT_LE(ss.stats().counts_in_flight_lost,
            static_cast<std::uint64_t>(16));  // <= one outstanding window
  EXPECT_GT(landed, 3000u);
}

TEST_F(ChannelSetTest, LookupTableDegradesToPassthroughOnDeadShard) {
  build(2);
  auto configs = pool(8192);
  LookupTablePrimitive::Config cfg;
  cfg.entry_bytes = 2048;
  LookupTablePrimitive lt(tb_->tor(), configs, cfg);

  // Install a forward-to-h1 entry for the h0 -> h1 five-tuple in
  // whichever shard owns it.
  net::FiveTuple tuple;
  tuple.src_ip = tb_->host(0).ip();
  tuple.dst_ip = tb_->host(1).ip();
  tuple.src_port = 7000;
  tuple.dst_port = 9000;
  tuple.protocol = static_cast<std::uint8_t>(net::IpProto::kUdp);
  const auto key_bytes = tuple.key_bytes();
  const std::vector<std::uint8_t> key(key_bytes.begin(), key_bytes.end());

  std::vector<std::span<std::uint8_t>> regions;
  for (int s = 0; s < 2; ++s) {
    regions.push_back(ChannelController::region_bytes(
        tb_->memory_server(s), configs[static_cast<std::size_t>(s)]));
  }
  switchsim::Action fwd;
  fwd.kind = switchsim::Action::Kind::kForward;
  fwd.port = static_cast<std::uint16_t>(tb_->port_of(1));
  const auto [home, slot] = LookupTablePrimitive::install_entry_sharded(
      regions, cfg.entry_bytes, key, fwd, cfg.hash_seed);

  host::PacketSink sink(tb_->host(1));
  send_packets(20, sim::gbps(1));
  tb_->sim().run();
  EXPECT_EQ(lt.stats().remote_lookups, 20u);
  EXPECT_EQ(lt.stats().applied, 20u);
  EXPECT_EQ(sink.packets(), 20u);

  // Kill the entry's home shard: lookups degrade to pass-through (the
  // default action), so packets still reach h1 instead of black-holing.
  for (int i = 0; i < 3; ++i) lt.channels().note_timeout(home);
  ASSERT_FALSE(lt.channels().is_up(home));
  send_packets(20, sim::gbps(1));
  tb_->sim().run();
  EXPECT_EQ(lt.stats().degraded_passthrough, 20u);
  EXPECT_EQ(lt.stats().remote_lookups, 20u) << "no lookups to a dead shard";
  EXPECT_EQ(sink.packets(), 40u) << "traffic must keep flowing";
}

TEST_F(ChannelSetTest, PacketBufferDropsTailOnDeadStripeAndKeepsDraining) {
  build(2);
  auto configs = pool(1 << 20);
  PacketBufferPrimitive::Config cfg;
  cfg.watch_port = tb_->port_of(1);
  cfg.divert_threshold_bytes = 0;  // divert from the first packet
  cfg.resume_threshold_bytes = 10 * 1500;
  PacketBufferPrimitive pb(tb_->tor(), configs, cfg);

  host::PacketSink sink(tb_->host(1));
  send_packets(200, sim::gbps(5));
  tb_->sim().run();
  EXPECT_EQ(pb.stats().stored, 200u);
  EXPECT_EQ(sink.packets(), 200u) << "both stripes drain while healthy";

  // Stripe 0 dies: half the ring slots become drop-tail holes, but the
  // surviving stripe keeps absorbing and the FIFO drain keeps moving.
  for (int i = 0; i < 3; ++i) pb.channels().note_timeout(0);
  ASSERT_FALSE(pb.channels().is_up(0));
  send_packets(200, sim::gbps(5));
  tb_->sim().run();

  EXPECT_GT(pb.stats().dead_stripe_drops, 0u);
  EXPECT_GT(pb.stats().stored, 200u) << "live stripe still absorbs";
  EXPECT_EQ(pb.stats().dead_stripe_drops + pb.stats().stored, 400u);
  EXPECT_EQ(static_cast<std::uint64_t>(sink.packets()), pb.stats().loaded)
      << "every stored packet on a live stripe was re-injected";
  EXPECT_EQ(pb.ring_depth(), 0) << "drain must not wedge on the holes";
}

// Construction-time validation (not asserts, which compile out under
// NDEBUG): the set and the slot layout every primitive derives from it.
TEST_F(ChannelSetTest, RejectsInvalidConfigsAtConstruction) {
  build(2);
  const auto configs = pool(4096);
  EXPECT_THROW(ChannelSet(tb_->tor(), {}), std::invalid_argument);
  EXPECT_THROW(ChannelSet(tb_->tor(), configs, {.down_after_timeouts = 0}),
               std::invalid_argument);
  EXPECT_THROW(ChannelSet(tb_->tor(), configs, {.down_after_naks = 0}),
               std::invalid_argument);

  // The slot layout every primitive derives from the set.
  const ChannelSet set(tb_->tor(), configs);
  EXPECT_EQ(set.slots_per_shard(8), 512u);
  EXPECT_EQ(set.slots_per_shard(4096), 1u);
  // A slot must come back in one READ response segment.
  EXPECT_THROW((void)set.slots_per_shard(configs[0].path_mtu + 1),
               std::invalid_argument);
  // Regions of different sizes cannot share one slot layout.
  auto uneven = configs;
  uneven[1].region_bytes = 2048;
  EXPECT_THROW(StateStorePrimitive(tb_->tor(), uneven, {}),
               std::invalid_argument);
  // Every shard must hold at least one slot (2 KiB entries, 1 KiB regions).
  auto tiny = configs;
  for (auto& cfg : tiny) cfg.region_bytes = 1024;
  EXPECT_THROW(LookupTablePrimitive(tb_->tor(), tiny, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace xmem::core
