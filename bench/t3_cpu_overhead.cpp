// T3 (§5) — "All the primitives have zero CPU overhead."
//
// For each primitive we run a steady-state workload and count packets
// the memory server's software stack had to handle. The contrast rows
// show the CPU-bound designs the primitives replace (software vswitch,
// KV backend) on identical workloads.
#include <cstdio>

#include "apps/kv_cache.hpp"
#include "apps/vip_table.hpp"
#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/lookup_table.hpp"
#include "core/packet_buffer.hpp"
#include "core/state_store.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/flow.hpp"

using namespace xmem;

namespace {

struct CpuRow {
  std::uint64_t rdma_ops = 0;
  std::uint64_t server_cpu = 0;
};

CpuRow packet_buffer_cpu() {
  control::Testbed::Config cfg;
  cfg.hosts = 4;
  control::Testbed tb(cfg);
  auto channel = tb.controller().setup_channel(
      tb.host(3), tb.port_of(3),
      {.region_bytes = 8 * static_cast<std::size_t>(sim::kMiB)});
  core::PacketBufferPrimitive pb(tb.tor(), channel,
                                 {.watch_port = tb.port_of(2),
                                  .divert_threshold_bytes = 0,
                                  .resume_threshold_bytes = 30 * 1500});
  host::PacketSink sink(tb.host(2));
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(2).mac(),
                                       .dst_ip = tb.host(2).ip(),
                                       .frame_size = 1500,
                                       .rate = sim::gbps(20),
                                       .packet_limit = 2000});
  gen.start();
  tb.sim().run();
  return {pb.stats().stored + pb.stats().loaded, tb.host(3).cpu_packets()};
}

CpuRow lookup_cpu() {
  control::Testbed tb;
  auto channel = tb.controller().setup_channel(tb.host(2), tb.port_of(2),
                                               {.region_bytes = 1 << 20});
  core::LookupTablePrimitive lookup(tb.tor(), channel, {});
  net::FiveTuple flow{tb.host(0).ip(), tb.host(1).ip(), 7000, 9000, 17};
  const auto key = flow.key_bytes();
  switchsim::Action action;
  action.kind = switchsim::Action::Kind::kForward;
  action.port = static_cast<std::uint16_t>(tb.port_of(1));
  core::LookupTablePrimitive::install_entry(
      control::ChannelController::region_bytes(tb.host(2), channel), 2048,
      std::span<const std::uint8_t>(key.data(), key.size()), action,
      0x9e3779b97f4a7c15ULL);
  host::PacketSink sink(tb.host(1));
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                       .dst_ip = tb.host(1).ip(),
                                       .frame_size = 256,
                                       .rate = sim::gbps(5),
                                       .packet_limit = 2000});
  gen.start();
  tb.sim().run();
  return {lookup.stats().remote_lookups * 2, tb.host(2).cpu_packets()};
}

CpuRow state_store_cpu() {
  control::Testbed tb;
  auto channel = tb.controller().setup_channel(tb.host(2), tb.port_of(2),
                                               {.region_bytes = 4096});
  core::StateStorePrimitive store(tb.tor(), channel, {});
  host::PacketSink sink(tb.host(1));
  host::CbrTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                       .dst_ip = tb.host(1).ip(),
                                       .frame_size = 128,
                                       .rate = sim::gbps(10),
                                       .packet_limit = 2000});
  gen.start();
  tb.sim().run();
  return {store.stats().fetch_adds_sent, tb.host(2).cpu_packets()};
}

/// Contrast: a software vswitch doing the lookup workload on its CPU.
CpuRow vswitch_cpu() {
  control::Testbed tb;
  apps::SoftwareVSwitch vswitch(tb.host(2));
  vswitch.add_mapping(apps::VipMapping{net::Ipv4Address(172, 16, 0, 1),
                                       tb.host(1).ip(), tb.host(1).mac(), 0});
  host::PacketSink sink(tb.host(1));
  host::CbrTrafficGen gen(tb.host(0),
                          {.dst_mac = tb.host(2).mac(),
                           .dst_ip = net::Ipv4Address(172, 16, 0, 1),
                           .frame_size = 256,
                           .rate = sim::gbps(1),
                           .packet_limit = 2000});
  gen.start();
  tb.sim().run();
  return {0, tb.host(2).cpu_packets()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchResults results(argc, argv);
  bench::banner("T3 (§5)", "CPU involvement audit",
                "\"All the primitives have zero CPU overhead\" — the server "
                "CPU acts only at channel initialization");

  const CpuRow pb = packet_buffer_cpu();
  const CpuRow lt = lookup_cpu();
  const CpuRow ss = state_store_cpu();
  const CpuRow vs = vswitch_cpu();

  stats::TablePrinter table(
      {"workload", "RDMA ops executed", "server CPU packets"});
  table.add_row({"packet buffer: 2000 pkts through remote ring",
                 std::to_string(pb.rdma_ops), std::to_string(pb.server_cpu)});
  table.add_row({"lookup table: 2000 remote lookups",
                 std::to_string(lt.rdma_ops), std::to_string(lt.server_cpu)});
  table.add_row({"state store: 2000 counted packets",
                 std::to_string(ss.rdma_ops), std::to_string(ss.server_cpu)});
  table.add_row({"(contrast) software vswitch, same 2000 pkts", "0",
                 std::to_string(vs.server_cpu)});
  table.print("T3: packets handled by the memory server's CPU");

  results.verdict(pb.server_cpu == 0 && pb.rdma_ops > 0,
                  "packet buffer: thousands of RDMA ops, zero CPU packets");
  results.verdict(lt.server_cpu == 0 && lt.rdma_ops > 0,
                  "lookup table: zero CPU packets");
  results.verdict(ss.server_cpu == 0 && ss.rdma_ops > 0,
                  "state store: zero CPU packets");
  results.verdict(vs.server_cpu >= 2000,
                  "the software alternative burns CPU on every packet");
  return results.finish();
}
