// The headline chaos scenario: all three primitives share one switch
// while a seeded FaultPlan throws randomized burst loss, corruption,
// duplication, reordering and jitter at the memory links, hangs one
// memory server's RNIC mid-run and then restarts it (fresh epoch:
// QPs gone, rkeys invalid) with the control plane reconnecting every
// primitive's shard against the new epoch. At drain time the full
// InvariantChecker suite must hold:
//   - reliable state store counted every sampled packet exactly once,
//   - every lookup is request/response-matched or attributed to a drop,
//   - the reliable packet buffer preserved FIFO order with no loss,
//   - no tracer span is left open,
// and corrupted-ICRC frames are provably dropped at the switch's parser
// (counter in the MetricsRegistry).
#include <gtest/gtest.h>

#include "control/testbed.hpp"
#include "core/lookup_table.hpp"
#include "core/packet_buffer.hpp"
#include "core/state_store.hpp"
#include "faults/fault_plan.hpp"
#include "faults/fault_scheduler.hpp"
#include "faults/invariants.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/flow.hpp"
#include "sim/env.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/op_tracer.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace xmem {
namespace {

using control::ChannelController;
using control::Testbed;

constexpr std::uint64_t kFlowA = 5000;  // h0 -> h1, through the packet buffer
constexpr std::uint64_t kFlowB = 1500;  // h0 -> h2, through the lookup table

/// Where postmortem bundles land. CI points XMEM_POSTMORTEM_DIR at a
/// directory it uploads as a job artifact, so a red chaos run ships its
/// flight-recorder dump with the failure; locally they stay in TempDir.
/// A missing XMEM_POSTMORTEM_DIR is created.
std::string postmortem_dir() {
  const std::optional<std::string> dir = sim::env("XMEM_POSTMORTEM_DIR");
  if (!dir.has_value() || dir->empty()) return testing::TempDir();
  std::filesystem::create_directories(*dir);
  return *dir + "/";
}

/// Appends `name=value` pairs to one text line per stats block, so a
/// golden mismatch names the field that moved.
class StatsText {
 public:
  void line(const std::string& label) {
    if (!text_.empty()) text_ += '\n';
    text_ += label;
  }
  void operator()(const char* name, std::uint64_t value) {
    text_ += ' ';
    text_ += name;
    text_ += '=';
    text_ += std::to_string(value);
  }
  [[nodiscard]] const std::string& str() const { return text_; }

 private:
  std::string text_;
};

void add_shard_stats(StatsText& out, const std::string& prefix,
                     const core::ChannelSet& set) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    const core::ChannelSet::ShardStats& s = set.shard_stats(i);
    out.line(prefix + "/shard" + std::to_string(i));
    out("ops_routed", s.ops_routed);
    out("routed_while_down", s.routed_while_down);
    out("timeouts", s.timeouts);
    out("naks", s.naks);
    out("down_transitions", s.down_transitions);
    out("up_transitions", s.up_transitions);
    out("probes_sent", s.probes_sent);
  }
}

/// Everything the chaos run pins bit for bit: the event count, a digest
/// of the Perfetto trace (span order, timestamps and close statuses), and
/// every primitive Stats and per-shard ShardStats field.
struct ChaosOutcome {
  std::uint64_t events = 0;
  std::uint64_t trace_digest = 0;
  std::string stats;
};

struct ChaosVariant {
  /// Lookups hold the packet and fetch only the action.
  bool recirculate = false;
};

/// The headline scenario. Every invariant and fault-plan expectation is
/// checked in here; the caller pins the returned outcome.
ChaosOutcome run_chaos_scenario(const ChaosVariant& variant) {
  Testbed::Config tbc;
  tbc.hosts = 3;
  tbc.memory_servers = 3;
  Testbed tb(tbc);

  telemetry::MetricsRegistry reg;
  telemetry::OpTracer tracer(tb.sim());

  // Armed flight recorder: the fault scheduler logs its actions and the
  // primitives' channel sets their shard transitions into it, and the
  // invariant checker dumps a postmortem bundle through it if anything
  // fails at drain time.
  telemetry::FlightRecorder flight(tb.sim());
  flight.set_registry(&reg);
  const std::string postmortem_path =
      postmortem_dir() + "chaos_postmortem.json";
  std::remove(postmortem_path.c_str());

  // The switch's parser drops corrupted-ICRC frames before any stage.
  tb.tor().register_metrics(reg, "tor");

  // --- Primitives (stage order: state store, lookup, buffer) -----------
  ChannelController::ChannelSpec ss_spec;
  ss_spec.region_bytes = 4096;
  ss_spec.tolerate_psn_gaps = false;  // strict RC for exactly-once
  auto ss_configs = tb.setup_memory_pool(ss_spec);
  core::StateStorePrimitive::Config ss_cfg;
  ss_cfg.reliable = true;
  {
    auto next = std::make_shared<std::uint64_t>(0);
    ss_cfg.sample_fn =
        [next](const net::Packet& p) -> std::optional<std::uint64_t> {
      auto tuple = net::extract_five_tuple(p);
      if (!tuple || tuple->dst_port == net::kRoceV2Port) return std::nullopt;
      return (*next)++ % 12;
    };
  }
  core::StateStorePrimitive ss(tb.tor(), ss_configs, ss_cfg);
  ss.attach_telemetry(&reg, &tracer, "ss");
  ss.channels().set_flight_recorder(&flight);

  ChannelController::ChannelSpec lt_spec;
  lt_spec.region_bytes = 1 << 20;
  auto lt_configs = tb.setup_memory_pool(lt_spec);
  core::LookupTablePrimitive::Config lt_cfg;
  lt_cfg.entry_bytes = 2048;
  lt_cfg.cache_capacity = 0;  // the accounting invariant's form
  if (variant.recirculate) {
    lt_cfg.mode = core::LookupTablePrimitive::Mode::kRecirculate;
  }
  lt_cfg.key_fn =
      [](const net::Packet& p) -> std::optional<std::vector<std::uint8_t>> {
    auto tuple = net::extract_five_tuple(p);
    if (!tuple || tuple->dst_port != 9100) return std::nullopt;  // flow B only
    const auto kb = tuple->key_bytes();
    return std::vector<std::uint8_t>(kb.begin(), kb.end());
  };
  core::LookupTablePrimitive lt(tb.tor(), lt_configs, lt_cfg);
  lt.attach_telemetry(&reg, &tracer, "lt");
  lt.channels().set_flight_recorder(&flight);

  ChannelController::ChannelSpec pb_spec;
  pb_spec.region_bytes = 1 << 22;
  auto pb_configs = tb.setup_memory_pool(pb_spec);
  core::PacketBufferPrimitive::Config pb_cfg;
  pb_cfg.watch_port = tb.port_of(1);
  pb_cfg.divert_threshold_bytes = 0;  // every flow-A packet rides the ring
  pb_cfg.resume_threshold_bytes = 10 * 1500;
  pb_cfg.reliable_stores = true;
  pb_cfg.reliable_loads = true;
  pb_cfg.read_timeout = sim::microseconds(150);
  core::PacketBufferPrimitive pb(tb.tor(), pb_configs, pb_cfg);
  pb.attach_telemetry(&reg, &tracer, "pb");
  pb.channels().set_flight_recorder(&flight);

  // Populate the lookup entry for flow B: forward to h2's port.
  net::FiveTuple tuple;
  tuple.src_ip = tb.host(0).ip();
  tuple.dst_ip = tb.host(2).ip();
  tuple.src_port = 7100;
  tuple.dst_port = 9100;
  tuple.protocol = static_cast<std::uint8_t>(net::IpProto::kUdp);
  const auto kb = tuple.key_bytes();
  const std::vector<std::uint8_t> key(kb.begin(), kb.end());
  {
    std::vector<std::span<std::uint8_t>> regions;
    for (int s = 0; s < 3; ++s) {
      regions.push_back(ChannelController::region_bytes(
          tb.memory_server(s), lt_configs[static_cast<std::size_t>(s)]));
    }
    switchsim::Action fwd;
    fwd.kind = switchsim::Action::Kind::kForward;
    fwd.port = static_cast<std::uint16_t>(tb.port_of(2));
    core::LookupTablePrimitive::install_entry_sharded(
        regions, lt_cfg.entry_bytes, key, fwd, lt_cfg.hash_seed);
  }

  // --- Fault plan: randomized episodes + scripted crash window ---------
  // Randomized episodes hit the two memory links that stay up the whole
  // run; the third link gets a scripted burst-loss + duplication window
  // plus a low-rate corruption overlay so the ICRC path is provably
  // exercised. The link is CLEARED three retransmit rounds before its
  // server's RNIC hangs: an atomic that executed but lost its ACK is
  // fundamentally ambiguous across an epoch change (the replay cache
  // dies with the old epoch), so exactly-once requires that the crash
  // only ever catches never-executed requests — which reconnect()
  // reclaims and re-issues.
  faults::RandomPlanSpec rnd;
  rnd.start = sim::microseconds(50);
  rnd.end = sim::microseconds(350);
  rnd.episodes = 4;
  rnd.link_targets = {0, 2};
  rnd.max_loss = 0.05;
  rnd.max_corrupt = 0.02;
  rnd.max_duplicate = 0.1;
  rnd.max_reorder = 0.05;
  rnd.max_jitter = sim::nanoseconds(500);
  faults::FaultPlan plan = faults::make_random_plan(rnd, /*seed=*/2026);

  topo::GilbertElliott ge;
  ge.enter_bad = 0.02;
  ge.exit_bad = 0.1;
  ge.loss_bad = 0.9;
  plan.events.push_back(
      faults::FaultEvent::corrupt(sim::microseconds(5), 1, 0.01));
  plan.events.push_back(
      faults::FaultEvent::burst_loss(sim::microseconds(100), 1, ge));
  plan.events.push_back(
      faults::FaultEvent::duplicate(sim::microseconds(120), 1, 0.15));
  plan.events.push_back(
      faults::FaultEvent::clear_link(sim::microseconds(350), 1));
  plan.events.push_back(
      faults::FaultEvent::rnic_hang(sim::microseconds(650), 1));
  plan.events.push_back(
      faults::FaultEvent::rnic_restart(sim::microseconds(1050), 1));

  faults::FaultScheduler sched(tb.sim(), std::move(plan));
  for (int i = 0; i < 3; ++i) {
    sched.add_link(tb.memory_server_link(i));
    sched.add_server(tb.memory_server(i).rnic());
  }
  sched.register_metrics(reg, "faults");
  sched.set_flight_recorder(&flight);
  sched.set_restart_hook([&](int server) {
    // Control-plane recovery: re-register each primitive's region under
    // a fresh rkey, rebuild the channel (fresh QPN/PSN/UDP port) and
    // hand it to the primitive, which reclaims or reposts whatever was
    // in flight across the epoch change. initial_psn = the requester's
    // next PSN so pre-crash reposts land as duplicates, not gaps.
    host::Host& s = tb.memory_server(server);
    const auto shard = static_cast<std::size_t>(server);

    ChannelController::ChannelSpec spec = ss_spec;
    spec.initial_psn = ss.channels().at(shard).next_psn();
    ss_configs[shard] = tb.controller().reconnect(s, ss_configs[shard], spec);
    ss.reconnect(shard, ss_configs[shard]);

    spec = lt_spec;
    spec.initial_psn = lt.channels().at(shard).next_psn();
    lt_configs[shard] = tb.controller().reconnect(s, lt_configs[shard], spec);
    lt.reconnect(shard, lt_configs[shard]);

    spec = pb_spec;
    spec.initial_psn = pb.channels().at(shard).next_psn();
    pb_configs[shard] = tb.controller().reconnect(s, pb_configs[shard], spec);
    pb.reconnect(shard, pb_configs[shard]);
  });
  sched.start();

  // --- Traffic ---------------------------------------------------------
  host::PacketSink sink_a(tb.host(1));
  host::PacketSink sink_b(tb.host(2));
  host::CbrTrafficGen gen_a(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                         .dst_ip = tb.host(1).ip(),
                                         .src_port = 7000,
                                         .dst_port = 9000,
                                         .frame_size = 128,
                                         .rate = sim::gbps(6),
                                         .packet_limit = kFlowA});
  host::CbrTrafficGen gen_b(tb.host(0), {.dst_mac = tb.host(2).mac(),
                                         .dst_ip = tb.host(2).ip(),
                                         .src_port = 7100,
                                         .dst_port = 9100,
                                         .frame_size = 128,
                                         .rate = sim::gbps(2),
                                         .packet_limit = kFlowB});
  gen_a.start();
  gen_b.start();
  tb.sim().run();

  // Drain: flush accumulators and let retransmit/probe timers finish.
  auto all_quiet = [&]() {
    return ss.quiescent() && pb.quiescent() && lt.outstanding() == 0;
  };
  for (int i = 0; i < 80 && !all_quiet(); ++i) {
    ss.flush();
    tb.sim().run_until(tb.sim().now() + sim::milliseconds(1));
    tb.sim().run();
  }

  // --- The fault plan actually ran -------------------------------------
  EXPECT_EQ(sched.stats().rnic_hangs, 1u);
  EXPECT_EQ(sched.stats().rnic_restarts, 1u);
  EXPECT_EQ(reg.read("faults/rnic_restarts"), 1.0);
  EXPECT_EQ(tb.memory_server(1).rnic().epoch(), 1u);
  EXPECT_GT(tb.memory_server_link(1).corrupted_frames(), 0u);
  EXPECT_GT(tb.memory_server_link(1).duplicated_frames(), 0u);
  EXPECT_GT(tb.memory_server_link(1).dropped_frames(), 0u);

  // Corrupted-ICRC frames provably dropped, observed via the registry.
  EXPECT_GT(reg.read("tor/corrupt_drops"), 0.0);
  EXPECT_GT(tb.tor().stats().corrupt_drops, 0u);

  // The reliability machinery was exercised, not idle.
  EXPECT_GT(ss.stats().retransmits, 0u);
  EXPECT_GT(pb.stats().write_retries + pb.stats().read_retries, 0u);
  EXPECT_GE(ss.channels().shard_stats(1).down_transitions, 1u);
  EXPECT_TRUE(ss.channels().is_up(1));
  EXPECT_EQ(pb.stats().ring_full_drops, 0u);
  EXPECT_EQ(pb.stats().dead_stripe_drops, 0u)
      << "reliable stores defer for a down stripe instead of dropping";

  // --- Invariants ------------------------------------------------------
  faults::InvariantChecker checker;
  checker.require_state_store_exact(ss, [&]() {
    std::uint64_t total = 0;
    for (int s = 0; s < 3; ++s) {
      auto region = ChannelController::region_bytes(
          tb.memory_server(s), ss_configs[static_cast<std::size_t>(s)]);
      for (std::size_t i = 0; i + 8 <= region.size(); i += 8) {
        total += rnic::load_le64(region.subspan(i, 8));
      }
    }
    return total;
  });
  checker.require_lookup_accounted(lt);
  checker.require_packet_buffer_fifo(pb, sink_a);
  checker.require_no_open_spans(tracer);
  checker.set_flight_recorder(&flight, postmortem_path);
  EXPECT_EQ(checker.size(), 8u);

  const auto violations = checker.run();
  EXPECT_TRUE(violations.empty())
      << faults::InvariantChecker::describe(violations);

  // The recorder saw the run (fault actions at minimum), and a clean
  // pass leaves no postmortem bundle behind.
  EXPECT_GE(flight.total_recorded(), 2u);
  bool saw_fault_event = false;
  for (const auto& e : flight.events()) {
    if (e.kind == static_cast<std::uint8_t>(
                      telemetry::FlightEventKind::kFaultApplied)) {
      saw_fault_event = true;
    }
  }
  EXPECT_TRUE(saw_fault_event);
  // Every shard transition of the three channel sets reached the ring.
  std::uint64_t ring_channel_events = 0;
  for (const auto& e : flight.events()) {
    if (e.kind == static_cast<std::uint8_t>(
                      telemetry::FlightEventKind::kChannelDown) ||
        e.kind == static_cast<std::uint8_t>(
                      telemetry::FlightEventKind::kChannelUp)) {
      ++ring_channel_events;
    }
  }
  std::uint64_t transitions = 0;
  for (const core::ChannelSet* set : {&ss.channels(), &lt.channels(),
                                      &pb.channels()}) {
    for (std::size_t shard = 0; shard < set->size(); ++shard) {
      transitions += set->shard_stats(shard).down_transitions +
                     set->shard_stats(shard).up_transitions;
    }
  }
  EXPECT_GT(transitions, 0u);
  EXPECT_EQ(flight.overwritten(), 0u);
  EXPECT_EQ(ring_channel_events, transitions);
  EXPECT_FALSE(std::ifstream(postmortem_path).good())
      << "clean invariant run must not write a postmortem";

  // End-to-end delivery: the protected flow arrived complete. Flow B
  // reaches h2 either via an applied lookup action or via plain L2
  // forwarding while the home shard was degraded.
  EXPECT_EQ(sink_a.packets(), kFlowA);
  EXPECT_EQ(sink_b.packets(),
            lt.stats().applied + lt.stats().degraded_passthrough);
  EXPECT_EQ(ss.stats().sampled_packets, kFlowA + kFlowB);

  ChaosOutcome outcome;
  outcome.events = tb.sim().events_executed();
  const std::string trace = tracer.chrome_trace_json();
  outcome.trace_digest = net::fnv1a(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(trace.data()), trace.size()));

  StatsText out;
  const auto& sst = ss.stats();
  out.line("ss");
  out("sampled_packets", sst.sampled_packets);
  out("fetch_adds_sent", sst.fetch_adds_sent);
  out("acks_received", sst.acks_received);
  out("naks_received", sst.naks_received);
  out("accumulated", sst.accumulated);
  out("retransmits", sst.retransmits);
  out("max_outstanding_seen", sst.max_outstanding_seen);
  out("counts_in_flight_lost", sst.counts_in_flight_lost);
  out("failover_reissues", sst.failover_reissues);
  out("duplicate_responses", sst.duplicate_responses);
  add_shard_stats(out, "ss", ss.channels());
  const auto& lst = lt.stats();
  out.line("lt");
  out("cache_hits", lst.cache_hits);
  out("remote_lookups", lst.remote_lookups);
  out("applied", lst.applied);
  out("no_entry_drops", lst.no_entry_drops);
  out("collision_drops", lst.collision_drops);
  out("cache_inserts", lst.cache_inserts);
  out("cache_evictions", lst.cache_evictions);
  out("held_packets", lst.held_packets);
  out("lost_responses", lst.lost_responses);
  out("oversized_drops", lst.oversized_drops);
  out("degraded_passthrough", lst.degraded_passthrough);
  out("duplicate_responses", lst.duplicate_responses);
  out("negative_cache_drops", lst.negative_cache_drops);
  out("cache_hits_while_down", lst.cache_hits_while_down);
  out("cache_stale_refetches", lst.cache_stale_refetches);
  add_shard_stats(out, "lt", lt.channels());
  const auto& pst = pb.stats();
  out.line("pb");
  out("stored", pst.stored);
  out("loaded", pst.loaded);
  out("ring_full_drops", pst.ring_full_drops);
  out("lost_loads", pst.lost_loads);
  out("read_retries", pst.read_retries);
  out("write_retries", pst.write_retries);
  out("deferred_stores", pst.deferred_stores);
  out("naks", pst.naks);
  out("ecn_marked", pst.ecn_marked);
  out("dead_stripe_drops", pst.dead_stripe_drops);
  out("duplicate_responses", pst.duplicate_responses);
  out("max_ring_depth", static_cast<std::uint64_t>(pst.max_ring_depth));
  add_shard_stats(out, "pb", pb.channels());
  outcome.stats = out.str();
  return outcome;
}

TEST(ChaosTest, SeededPlanWithRnicRestartPassesAllInvariants) {
  const ChaosOutcome got = run_chaos_scenario({});
  // Golden values: any change to the reliability paths (retransmit,
  // reclaim, expiry, replay, dedup) that moves one of these is a
  // behaviour change, not a refactor.
  EXPECT_EQ(got.events, 120407u);
  EXPECT_EQ(got.trace_digest, 0xfc432cd8b6bed5c0u);
  EXPECT_EQ(got.stats,
            "ss sampled_packets=6500 fetch_adds_sent=2346 "
            "acks_received=2328 naks_received=10 accumulated=4185 "
            "retransmits=177 max_outstanding_seen=16 "
            "counts_in_flight_lost=0 failover_reissues=31 "
            "duplicate_responses=48\n"
            "ss/shard0 ops_routed=699 routed_while_down=0 timeouts=1 "
            "naks=5 down_transitions=0 up_transitions=0 probes_sent=0\n"
            "ss/shard1 ops_routed=481 routed_while_down=0 timeouts=5 "
            "naks=2 down_transitions=1 up_transitions=1 probes_sent=1\n"
            "ss/shard2 ops_routed=1166 routed_while_down=0 timeouts=1 "
            "naks=3 down_transitions=0 up_transitions=0 probes_sent=0\n"
            "lt cache_hits=0 remote_lookups=391 applied=241 "
            "no_entry_drops=0 collision_drops=0 cache_inserts=0 "
            "cache_evictions=0 held_packets=0 lost_responses=150 "
            "oversized_drops=0 degraded_passthrough=1109 "
            "duplicate_responses=45 negative_cache_drops=0 "
            "cache_hits_while_down=0 cache_stale_refetches=0\n"
            "lt/shard0 ops_routed=391 routed_while_down=1109 timeouts=3 "
            "naks=0 down_transitions=1 up_transitions=1 probes_sent=1\n"
            "lt/shard1 ops_routed=0 routed_while_down=0 timeouts=0 naks=0 "
            "down_transitions=0 up_transitions=0 probes_sent=0\n"
            "lt/shard2 ops_routed=0 routed_while_down=0 timeouts=0 naks=0 "
            "down_transitions=0 up_transitions=0 probes_sent=0\n"
            "pb stored=5000 loaded=5000 ring_full_drops=0 lost_loads=0 "
            "read_retries=27 write_retries=1689 deferred_stores=0 naks=0 "
            "ecn_marked=0 dead_stripe_drops=0 duplicate_responses=142 "
            "max_ring_depth=4960\n"
            "pb/shard0 ops_routed=1667 routed_while_down=0 timeouts=2 "
            "naks=0 down_transitions=0 up_transitions=0 probes_sent=0\n"
            "pb/shard1 ops_routed=1667 routed_while_down=0 timeouts=3 "
            "naks=0 down_transitions=0 up_transitions=0 probes_sent=0\n"
            "pb/shard2 ops_routed=1666 routed_while_down=0 timeouts=1 "
            "naks=0 down_transitions=0 up_transitions=0 probes_sent=0");
}

TEST(ChaosTest, RecirculatePassesAllInvariants) {
  const ChaosOutcome got = run_chaos_scenario({.recirculate = true});
  EXPECT_EQ(got.events, 124934u);
  EXPECT_EQ(got.trace_digest, 0x07c2345e43239c8cu);
  EXPECT_EQ(got.stats,
            "ss sampled_packets=6500 fetch_adds_sent=2101 "
            "acks_received=2084 naks_received=8 accumulated=4429 "
            "retransmits=128 max_outstanding_seen=16 "
            "counts_in_flight_lost=0 failover_reissues=30 "
            "duplicate_responses=59\n"
            "ss/shard0 ops_routed=771 routed_while_down=0 timeouts=0 "
            "naks=0 down_transitions=0 up_transitions=0 probes_sent=0\n"
            "ss/shard1 ops_routed=411 routed_while_down=0 timeouts=5 "
            "naks=7 down_transitions=1 up_transitions=1 probes_sent=1\n"
            "ss/shard2 ops_routed=919 routed_while_down=0 timeouts=1 "
            "naks=1 down_transitions=0 up_transitions=0 probes_sent=0\n"
            "lt cache_hits=0 remote_lookups=1500 applied=1500 "
            "no_entry_drops=0 collision_drops=0 cache_inserts=0 "
            "cache_evictions=0 held_packets=46 lost_responses=0 "
            "oversized_drops=0 degraded_passthrough=0 "
            "duplicate_responses=0 negative_cache_drops=0 "
            "cache_hits_while_down=0 cache_stale_refetches=0\n"
            "lt/shard0 ops_routed=1500 routed_while_down=0 timeouts=0 "
            "naks=0 down_transitions=0 up_transitions=0 probes_sent=0\n"
            "lt/shard1 ops_routed=0 routed_while_down=0 timeouts=0 naks=0 "
            "down_transitions=0 up_transitions=0 probes_sent=0\n"
            "lt/shard2 ops_routed=0 routed_while_down=0 timeouts=0 naks=0 "
            "down_transitions=0 up_transitions=0 probes_sent=0\n"
            "pb stored=5000 loaded=5000 ring_full_drops=0 lost_loads=0 "
            "read_retries=14 write_retries=1544 deferred_stores=0 naks=0 "
            "ecn_marked=0 dead_stripe_drops=0 duplicate_responses=184 "
            "max_ring_depth=4876\n"
            "pb/shard0 ops_routed=1667 routed_while_down=0 timeouts=1 "
            "naks=0 down_transitions=0 up_transitions=0 probes_sent=0\n"
            "pb/shard1 ops_routed=1667 routed_while_down=0 timeouts=3 "
            "naks=0 down_transitions=0 up_transitions=0 probes_sent=0\n"
            "pb/shard2 ops_routed=1666 routed_while_down=0 timeouts=1 "
            "naks=0 down_transitions=0 up_transitions=0 probes_sent=0");
}

// The crash-forensics contract: a failing invariant must leave a
// parseable postmortem bundle behind — violation events in the ring,
// the reason naming the first failed check, and the final metric
// snapshot when a registry is attached.
TEST(ChaosTest, InvariantFailureWritesPostmortemBundle) {
  sim::Simulator sim;
  telemetry::MetricsRegistry reg;
  std::int64_t losses = 3;
  reg.register_counter("app/losses", [&]() { return losses; }, "packets");

  telemetry::FlightRecorder flight(sim, /*capacity=*/16);
  flight.set_registry(&reg);
  sim.schedule_at(sim::microseconds(10), [&]() {
    flight.note("workload start");
  });
  sim.run_until(sim::microseconds(20));

  const std::string path = postmortem_dir() + "postmortem_bundle.json";
  std::remove(path.c_str());

  faults::InvariantChecker checker;
  checker.add("no_packets_lost", [&]() -> std::optional<std::string> {
    if (losses == 0) return std::nullopt;
    return "lost " + std::to_string(losses) + " packets";
  });
  checker.add("always_holds",
              []() -> std::optional<std::string> { return std::nullopt; });
  checker.set_flight_recorder(&flight, path);

  const auto violations = checker.run();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].name, "no_packets_lost");

  // The ring holds the violation event alongside the run's own trail.
  bool saw_violation = false;
  for (const auto& e : flight.events()) {
    if (e.kind == static_cast<std::uint8_t>(
                      telemetry::FlightEventKind::kInvariantViolation)) {
      saw_violation = true;
      EXPECT_EQ(e.label_view(), "no_packets_lost");
    }
  }
  EXPECT_TRUE(saw_violation);

  // The bundle on disk parses under the pinned schema and carries the
  // reason, the events, and the metric snapshot.
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "postmortem bundle missing at " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto doc = telemetry::json::parse(buf.str());
  EXPECT_EQ(doc.at("schema").string(), "xmem-postmortem-v1");
  EXPECT_EQ(doc.at("reason").string(),
            "invariant violation: no_packets_lost");
  ASSERT_GE(doc.at("events").array().size(), 2u);
  bool metric_present = false;
  for (const auto& m : doc.at("metrics").array()) {
    if (m.at("name").string() == "app/losses") {
      metric_present = true;
      EXPECT_EQ(m.at("value").number(), 3.0);
    }
  }
  EXPECT_TRUE(metric_present);
  std::remove(path.c_str());
}

// A bundle that cannot be written must not vanish silently: it is one
// more violation, naming the path, after the check that failed.
TEST(ChaosTest, UnwritablePostmortemIsAViolation) {
  sim::Simulator sim;
  telemetry::FlightRecorder flight(sim, /*capacity=*/16);
  const std::filesystem::path missing =
      std::filesystem::path(testing::TempDir()) / "chaos_missing_dir";
  std::filesystem::remove_all(missing);
  const std::string path = (missing / "postmortem_bundle.json").string();

  faults::InvariantChecker checker;
  checker.add("always_fails",
              []() -> std::optional<std::string> { return "failed"; });
  checker.set_flight_recorder(&flight, path);

  const auto violations = checker.run();
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].name, "always_fails");
  EXPECT_EQ(violations[1].name, "postmortem");
  EXPECT_EQ(violations[1].detail, "cannot write " + path);
}

}  // namespace
}  // namespace xmem
