// Unit-level coverage for the chaos harness building blocks: link fault
// models (burst loss, corruption, duplication), ICRC enforcement at both
// ends, RNIC restart semantics (rkey invalidation + re-registration),
// control-plane reconnect against a restarted server, duplicate-response
// idempotence, configurable health thresholds, and repost PSN semantics.
#include <gtest/gtest.h>

#include "control/testbed.hpp"
#include "core/channel_set.hpp"
#include "core/rdma_channel.hpp"
#include "core/state_store.hpp"
#include "faults/fault_plan.hpp"
#include "faults/fault_scheduler.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/flow.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/op_tracer.hpp"

namespace xmem {
namespace {

using control::ChannelController;
using control::Testbed;
using core::StateStorePrimitive;

TEST(GilbertElliottTest, MeanLossMatchesStationaryDistribution) {
  topo::GilbertElliott ge;
  ge.enter_bad = 0.02;
  ge.exit_bad = 0.08;
  ge.loss_bad = 1.0;
  // pi_bad = 0.02 / 0.10 = 0.2, bad state always loses.
  EXPECT_NEAR(ge.mean_loss(), 0.2, 1e-12);
  EXPECT_EQ(topo::GilbertElliott{}.mean_loss(), 0.0);
}

TEST(FaultPlanTest, RandomPlanIsSeededDeterministicAndBounded) {
  faults::RandomPlanSpec spec;
  spec.start = sim::microseconds(10);
  spec.end = sim::microseconds(200);
  spec.episodes = 6;
  spec.link_targets = {0, 2};

  const faults::FaultPlan a = faults::make_random_plan(spec, 42);
  const faults::FaultPlan b = faults::make_random_plan(spec, 42);
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_FALSE(a.events.empty());

  int clears = 0;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const faults::FaultEvent& e = a.events[i];
    // Same seed -> bit-identical plan.
    EXPECT_EQ(e.kind, b.events[i].kind);
    EXPECT_EQ(e.at, b.events[i].at);
    EXPECT_EQ(e.target, b.events[i].target);
    EXPECT_EQ(e.rate, b.events[i].rate);
    // Only link faults, only requested targets, only inside the window,
    // sorted by time.
    EXPECT_LE(e.kind, faults::FaultKind::kLinkClear);
    EXPECT_TRUE(e.target == 0 || e.target == 2);
    EXPECT_GE(e.at, spec.start);
    EXPECT_LE(e.at, spec.end);
    if (i > 0) {
      EXPECT_GE(e.at, a.events[i - 1].at);
    }
    if (e.kind == faults::FaultKind::kLinkClear) ++clears;
  }
  EXPECT_EQ(clears, spec.episodes) << "every episode must end in a clear";

  // A different seed produces a different plan.
  const faults::FaultPlan c = faults::make_random_plan(spec, 43);
  bool differs = c.events.size() != a.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = a.events[i].at != c.events[i].at ||
              a.events[i].kind != c.events[i].kind ||
              a.events[i].rate != c.events[i].rate;
  }
  EXPECT_TRUE(differs);
}

class FaultInjectionTest : public ::testing::Test {
 protected:
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

TEST_F(FaultInjectionTest, BurstLossTracksConfiguredMeanRate) {
  build(0);
  topo::GilbertElliott ge;
  ge.enter_bad = 0.02;
  ge.exit_bad = 0.1;
  ge.loss_bad = 1.0;  // mean loss = 0.02 / 0.12 = 16.7%
  topo::LinkFaultProfile profile;
  profile.burst = ge;
  tb_->link_of(1).set_fault_profile(profile, /*seed=*/7);
  EXPECT_TRUE(tb_->link_of(1).fault_profile().active());

  host::PacketSink sink(tb_->host(1));
  send_packets(4000);

  const topo::Link& link = tb_->link_of(1);
  EXPECT_EQ(sink.packets() + link.dropped_frames(), 4000u)
      << "every frame is either delivered or counted dropped";
  EXPECT_GT(link.dropped_frames(), 0u);
  const double measured =
      static_cast<double>(link.dropped_frames()) / 4000.0;
  EXPECT_NEAR(measured, ge.mean_loss(), 0.08)
      << "long-run burst loss approximates the chain's mean";
  // Losses are bursty: far fewer loss *runs* than lost frames.
  EXPECT_GT(sink.missing(), 0u);
}

TEST_F(FaultInjectionTest, CorruptedRoceFramesDropAtSwitchAndRnic) {
  build(1);
  telemetry::MetricsRegistry reg;
  telemetry::OpTracer tracer(tb_->sim());
  tb_->tor().register_metrics(reg, "tor");

  auto configs = pool(4096, /*strict=*/true);
  StateStorePrimitive::Config cfg;
  cfg.sample_fn = round_robin(4);
  cfg.reliable = true;
  StateStorePrimitive ss(tb_->tor(), configs, cfg);
  ss.attach_telemetry(&reg, &tracer, "ss");

  topo::LinkFaultProfile profile;
  profile.corrupt_rate = 0.02;
  tb_->memory_server_link(0).set_fault_profile(profile, /*seed=*/11);

  host::PacketSink sink(tb_->host(1));
  send_packets(1500);
  settle(ss);

  // Corrupted requests die at the RNIC's ICRC check, corrupted responses
  // at the switch's parser — and the switch counter is visible through
  // the registry.
  const auto& sw = tb_->tor().stats();
  EXPECT_GT(tb_->memory_server_link(0).corrupted_frames(), 0u);
  EXPECT_GT(tb_->memory_server(0).rnic().stats().corrupt_dropped, 0u);
  EXPECT_GT(sw.corrupt_drops, 0u);
  EXPECT_GT(sw.consumed, sw.corrupt_drops) << "most responses verified";
  EXPECT_GT(reg.read("tor/corrupt_drops"), 0.0);

  // Reliable mode rides out the corruption loss: exactly-once counting.
  EXPECT_TRUE(ss.quiescent());
  EXPECT_GT(ss.stats().retransmits, 0u);
  EXPECT_EQ(region_total(0, configs[0]), ss.stats().sampled_packets);
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(sink.packets(), 1500u) << "data traffic unaffected";
}

// A state store on the default sampler (any five-tuple) would count a
// corrupted RoCE response as a tenant frame if one reached its stage.
// With no other stage installed, the switch's parser drops them first,
// so both counts are exactly the tenant traffic.
TEST_F(FaultInjectionTest, DefaultSamplerCountsOnlyTenantFrames) {
  build(1);
  auto configs = pool(4096, /*strict=*/true);
  StateStorePrimitive::Config cfg;
  cfg.reliable = true;
  StateStorePrimitive ss(tb_->tor(), configs, cfg);

  topo::LinkFaultProfile profile;
  profile.corrupt_rate = 0.02;
  tb_->memory_server_link(0).set_fault_profile(profile, /*seed=*/11);

  send_packets(1500);
  settle(ss);

  EXPECT_GT(tb_->tor().stats().corrupt_drops, 0u);
  EXPECT_TRUE(ss.quiescent());
  EXPECT_EQ(ss.stats().sampled_packets, 1500u);
  EXPECT_EQ(region_total(0, configs[0]), 1500u);
}

// Satellite regression: duplicated ACK/NAK frames must not double-count
// completions, health observations or remote state.
TEST_F(FaultInjectionTest, DuplicatedResponsesAreCountedOnceAndFiltered) {
  build(1);
  telemetry::OpTracer tracer(tb_->sim());
  auto configs = pool(4096, /*strict=*/true);
  StateStorePrimitive::Config cfg;
  cfg.sample_fn = round_robin(4);
  cfg.reliable = true;
  StateStorePrimitive ss(tb_->tor(), configs, cfg);
  ss.attach_telemetry(nullptr, &tracer, "ss");

  topo::LinkFaultProfile profile;
  profile.duplicate_rate = 0.25;  // both requests and responses
  tb_->memory_server_link(0).set_fault_profile(profile, /*seed=*/13);

  host::PacketSink sink(tb_->host(1));
  send_packets(800);
  settle(ss);

  EXPECT_GT(tb_->memory_server_link(0).duplicated_frames(), 0u);
  EXPECT_GT(ss.stats().duplicate_responses, 0u)
      << "the duplicates arrived and were recognized";
  // Duplicated requests are re-served from the replay cache, duplicated
  // responses discarded by the per-PSN completion path: remote counters
  // stay exact and the shard never wobbles.
  EXPECT_TRUE(ss.quiescent());
  EXPECT_EQ(region_total(0, configs[0]), ss.stats().sampled_packets);
  EXPECT_EQ(ss.channels().shard_stats(0).down_transitions, 0u);
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(sink.packets(), 800u);
}

TEST_F(FaultInjectionTest, RestartInvalidatesRkeysUntilReregistration) {
  build(1);
  auto configs = pool(4096);
  rnic::Rnic& nic = tb_->memory_server(0).rnic();
  auto region_bytes =
      ChannelController::region_bytes(tb_->memory_server(0), configs[0]);
  region_bytes[0] = 0xab;  // DRAM marker that must survive the restart

  EXPECT_EQ(nic.memory().check(configs[0].rkey, configs[0].base_va, 8,
                               rnic::Access::kRemoteWrite),
            rnic::MemStatus::kOk);

  nic.restart();
  EXPECT_EQ(nic.epoch(), 1u);
  EXPECT_EQ(nic.stats().restarts, 1u);
  EXPECT_EQ(nic.memory().check(configs[0].rkey, configs[0].base_va, 8,
                               rnic::Access::kRemoteWrite),
            rnic::MemStatus::kBadRkey)
      << "translation state is lost until re-registration";

  rnic::MemoryRegion* region = nic.memory().reregister(configs[0].rkey);
  ASSERT_NE(region, nullptr);
  EXPECT_NE(region->rkey(), configs[0].rkey) << "rkeys are never reused";
  EXPECT_EQ(region->base_va(), configs[0].base_va);
  EXPECT_TRUE(region->valid());
  EXPECT_EQ(region->bytes()[0], 0xab) << "host DRAM survives the restart";
  EXPECT_EQ(nic.memory().check(region->rkey(), configs[0].base_va, 8,
                               rnic::Access::kRemoteWrite),
            rnic::MemStatus::kOk);
  // The old rkey is gone for good.
  EXPECT_EQ(nic.memory().reregister(configs[0].rkey), nullptr);
  EXPECT_EQ(nic.memory().check(configs[0].rkey, configs[0].base_va, 8,
                               rnic::Access::kRemoteWrite),
            rnic::MemStatus::kBadRkey);
}

TEST_F(FaultInjectionTest, SchedulerRestartWithReconnectRecoversExactly) {
  build(1);
  telemetry::OpTracer tracer(tb_->sim());
  auto configs = pool(4096, /*strict=*/true);
  StateStorePrimitive::Config cfg;
  cfg.sample_fn = round_robin(4);
  cfg.reliable = true;
  StateStorePrimitive ss(tb_->tor(), configs, cfg);
  ss.attach_telemetry(nullptr, &tracer, "ss");

  faults::FaultPlan plan;
  plan.events.push_back(
      faults::FaultEvent::rnic_hang(sim::microseconds(150), 0));
  plan.events.push_back(
      faults::FaultEvent::rnic_restart(sim::microseconds(260), 0));
  faults::FaultScheduler sched(tb_->sim(), std::move(plan));
  sched.add_server(tb_->memory_server(0).rnic());
  sched.set_restart_hook([&](int /*server*/) {
    ChannelController::ChannelSpec spec;
    spec.region_bytes = 4096;
    spec.tolerate_psn_gaps = false;
    spec.initial_psn = ss.channels().at(0).next_psn();
    configs[0] =
        tb_->controller().reconnect(tb_->memory_server(0), configs[0], spec);
    ss.reconnect(0, configs[0]);
  });
  sched.start();

  host::PacketSink sink(tb_->host(1));
  send_packets(2500);
  settle(ss);

  EXPECT_EQ(sched.stats().rnic_hangs, 1u);
  EXPECT_EQ(sched.stats().rnic_restarts, 1u);
  EXPECT_EQ(tb_->memory_server(0).rnic().epoch(), 1u);
  // The outage here is shorter than the down threshold: recovery is
  // driven purely by reconnect() reclaiming the atomics that were in
  // flight across the epoch change (their reposts would hit the new
  // epoch's empty replay cache) and re-issuing them.
  EXPECT_TRUE(ss.channels().is_up(0));
  EXPECT_GT(ss.stats().failover_reissues, 0u);
  // Counts in flight across the crash were re-accumulated and
  // re-issued against the new epoch: exact.
  EXPECT_TRUE(ss.quiescent());
  EXPECT_EQ(region_total(0, configs[0]), ss.stats().sampled_packets);
  EXPECT_EQ(tracer.open_spans(), 0u);
  EXPECT_EQ(sink.packets(), 2500u);
}

// Satellite: repost_* keeps the original PSN (no register advance), the
// tracer records the retransmit, and a stale duplicate close is ignored.
TEST_F(FaultInjectionTest, RepostKeepsOriginalPsnAndResponderExecutesOnce) {
  build(1);
  auto configs = pool(4096, /*strict=*/true);
  telemetry::OpTracer tracer(tb_->sim());
  core::RdmaChannel ch(tb_->tor(), configs[0]);
  ch.attach_telemetry(nullptr, &tracer, "ch");

  const roce::Psn psn0 = ch.post_fetch_add(configs[0].base_va, 5);
  EXPECT_EQ(ch.next_psn(), roce::psn_add(psn0, 1));
  ch.repost_fetch_add(configs[0].base_va, 5, psn0);
  EXPECT_EQ(ch.next_psn(), roce::psn_add(psn0, 1))
      << "repost must not advance the PSN";
  EXPECT_EQ(tracer.stats().retransmits, 1u);

  const roce::Psn psn1 = ch.post_read(configs[0].base_va, 64);
  ch.repost_read(configs[0].base_va, 64, psn1);
  EXPECT_EQ(ch.next_psn(), roce::psn_add(psn1, 1));
  EXPECT_EQ(tracer.stats().retransmits, 2u);

  tb_->sim().run();
  // The duplicate F&A was answered from the replay cache, not
  // re-executed: the counter holds one application of +5.
  auto region =
      ChannelController::region_bytes(tb_->memory_server(0), configs[0]);
  EXPECT_EQ(rnic::load_le64(region.subspan(0, 8)), 5u);
  EXPECT_EQ(tb_->memory_server(0).rnic().stats().atomics, 1u);

  EXPECT_EQ(tracer.stats().spans_opened, 2u) << "reposts open no new span";
  ch.trace_complete(psn0);
  ch.trace_complete(psn0);  // stale duplicate close: first close wins
  EXPECT_EQ(tracer.stats().duplicate_closes, 1u);
  ch.trace_complete(psn1);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

}  // namespace
}  // namespace xmem
