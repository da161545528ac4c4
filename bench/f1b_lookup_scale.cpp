// F1b (§2.2 / Fig. 1b) — extending lookup tables for bare-metal hosting.
//
// A ToR must translate virtual to physical addresses for working sets
// that are "at least one order of magnitude" larger than its SRAM. Three
// designs compete over a Zipf-skewed VIP workload:
//   sram+cpu   : a 65,536-entry on-chip exact-match table holding the
//                most popular VIPs; misses detour through a software
//                virtual switch on a server (the CPU slow path).
//   remote     : the lookup-table primitive, whole table in server DRAM.
//   remote+$   : the primitive with the same 65,536 SRAM entries used as
//                a cache in front of the remote table.
// Reported per working-set size: delivery rate, median/p99 latency,
// slow-path or remote-fetch fraction, and server CPU packets.
#include <cstdio>
#include <vector>

#include "apps/vip_table.hpp"
#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/lookup_table.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "sim/rng.hpp"

using namespace xmem;

namespace {

constexpr std::size_t kSramEntries = 65536;
constexpr std::size_t kEntryBytes = 192;
constexpr std::uint64_t kPackets = 20000;
constexpr std::size_t kFrame = 128;
constexpr std::uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;

net::Ipv4Address vip_of(std::uint64_t rank) {
  return net::Ipv4Address(static_cast<std::uint32_t>(0xac100000u + rank));
}

struct Row {
  double delivered_pct = 0;
  double median_us = 0;
  double p99_us = 0;
  double offpath_pct = 0;  // slow-path or remote-lookup fraction
  std::uint64_t server_cpu = 0;
};

/// Drives `kPackets` Zipf-distributed VIP packets from h0 at `rate`.
class VipWorkload {
 public:
  VipWorkload(control::Testbed& tb, std::uint64_t vips,
              const net::MacAddress& dst_mac, sim::Bandwidth rate)
      : tb_(&tb), dst_mac_(dst_mac), rng_(99), zipf_(vips, 0.99, rng_),
        interval_(sim::transmission_time(kFrame, rate)) {}

  void start() { send_next(); }
  [[nodiscard]] std::uint64_t sent() const { return sent_; }

 private:
  void send_next() {
    if (sent_ >= kPackets) return;
    const std::size_t overhead = net::kEthernetHeaderBytes +
                                 net::kIpv4HeaderBytes + net::kUdpHeaderBytes;
    std::vector<std::uint8_t> payload(kFrame - overhead, 0);
    host::ProbeHeader probe{sent_, tb_->sim().now()};
    probe.write_to(payload);
    net::Packet p = net::build_udp_packet(
        tb_->host(0).mac(), dst_mac_, tb_->host(0).ip(), vip_of(zipf_()),
        7000, 9000, payload);
    ++sent_;
    tb_->host(0).send(std::move(p));
    tb_->sim().schedule_in(interval_, [this]() { send_next(); });
  }

  control::Testbed* tb_;
  net::MacAddress dst_mac_;
  sim::Rng rng_;
  sim::ZipfGenerator zipf_;
  sim::Time interval_;
  std::uint64_t sent_ = 0;
};

std::vector<apps::VipMapping> mappings_for(control::Testbed& tb,
                                           std::uint64_t vips) {
  // Rank-ordered (most popular first), all pointing at physical host h1.
  std::vector<apps::VipMapping> mappings;
  mappings.reserve(vips);
  for (std::uint64_t r = 0; r < vips; ++r) {
    mappings.push_back(apps::VipMapping{vip_of(r), tb.host(1).ip(),
                                        tb.host(1).mac(),
                                        static_cast<std::uint16_t>(tb.port_of(1))});
  }
  return mappings;
}

/// (a) SRAM table + software-vswitch slow path.
Row run_sram_cpu(std::uint64_t vips, sim::Bandwidth rate) {
  control::Testbed tb;  // h0 client, h1 physical host, h2 vswitch server
  apps::SoftwareVSwitch vswitch(tb.host(2));
  const auto mappings = mappings_for(tb, vips);
  for (const auto& m : mappings) vswitch.add_mapping(m);

  switchsim::ExactMatchTable sram(kSramEntries);
  for (std::size_t r = 0; r < std::min<std::uint64_t>(vips, kSramEntries);
       ++r) {
    const std::uint32_t ip = mappings[r].virtual_ip.value();
    sram.insert({static_cast<std::uint8_t>(ip >> 24),
                 static_cast<std::uint8_t>(ip >> 16),
                 static_cast<std::uint8_t>(ip >> 8),
                 static_cast<std::uint8_t>(ip)},
                apps::action_for(mappings[r]));
  }

  std::uint64_t slow_path = 0;
  auto key_fn = apps::vip_key_fn();
  const int vswitch_port = tb.port_of(2);
  tb.tor().add_ingress_stage("sram-vip", [&](switchsim::PipelineContext& ctx) {
    auto key = key_fn(ctx.packet);
    if (!key) return;
    if (const switchsim::Action* action = sram.lookup(*key)) {
      const auto& mac = action->new_dst_mac.octets();
      std::copy(mac.begin(), mac.end(), ctx.packet.mutable_bytes().begin());
      net::rewrite_dst_ip(ctx.packet, action->new_dst_ip);
      ctx.egress_port = action->port;
    } else if (ctx.ingress_port == tb.port_of(0)) {
      ++slow_path;  // only client-side arrivals detour; returning
      ctx.egress_port = vswitch_port;
    }
  });

  host::PacketSink sink(tb.host(1));
  VipWorkload workload(tb, vips, net::MacAddress::from_index(0), rate);
  workload.start();
  tb.sim().run();

  Row row;
  row.delivered_pct = 100.0 * static_cast<double>(sink.packets()) / kPackets;
  row.median_us = sink.latency_us().median();
  row.p99_us = sink.latency_us().p99();
  row.offpath_pct = 100.0 * static_cast<double>(slow_path) / kPackets;
  row.server_cpu = tb.host(2).cpu_packets();
  return row;
}

/// (b)/(c) remote lookup table, optionally with the SRAM cache.
Row run_remote(std::uint64_t vips, bool with_cache, sim::Bandwidth rate) {
  control::Testbed tb;  // h0 client, h1 physical host, h2 memory server
  // 4x slot provisioning keeps the direct-indexed table's collision rate
  // low; see the note printed below.
  const std::size_t region = 4 * vips * kEntryBytes;
  auto channel = tb.controller().setup_channel(tb.host(2), tb.port_of(2),
                                               {.region_bytes = region});
  core::LookupTablePrimitive lookup(
      tb.tor(), channel,
      {.entry_bytes = kEntryBytes,
       .cache_capacity = with_cache ? kSramEntries : 0,
       .key_fn = apps::vip_key_fn(),
       .hash_seed = kHashSeed});
  apps::populate_vip_region(
      control::ChannelController::region_bytes(tb.host(2), channel),
      kEntryBytes, mappings_for(tb, vips), kHashSeed);

  host::PacketSink sink(tb.host(1));
  VipWorkload workload(tb, vips, net::MacAddress::from_index(0), rate);
  workload.start();
  tb.sim().run();

  Row row;
  row.delivered_pct = 100.0 * static_cast<double>(sink.packets()) / kPackets;
  row.median_us = sink.latency_us().median();
  row.p99_us = sink.latency_us().p99();
  row.offpath_pct =
      100.0 * static_cast<double>(lookup.stats().remote_lookups) / kPackets;
  row.server_cpu = tb.host(2).cpu_packets();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchResults results(argc, argv);
  bench::banner(
      "F1b (§2.2)", "virtual-to-physical tables beyond switch SRAM",
      "vswitch tables are >=10x switch SRAM; a remote table removes the "
      "CPU slow path; local SRAM caching absorbs the hot set");

  const sim::Bandwidth rate = sim::gbps(2);  // ~2 Mpps of 128 B lookups
  stats::TablePrinter table({"VIPs", "design", "delivered", "median (us)",
                             "p99 (us)", "slow/remote", "server CPU pkts"});
  bool remote_beats_cpu_at_scale = true;
  bool cache_restores_fast_path = true;
  double big_cpu_p99 = 0;
  double big_remote_p99 = 0;

  for (const std::uint64_t vips : {4096ull, 65536ull, 262144ull, 1048576ull}) {
    const Row sram = run_sram_cpu(vips, rate);
    const Row remote = run_remote(vips, false, rate);
    const Row cached = run_remote(vips, true, rate);
    auto add = [&](const char* name, const Row& row) {
      table.add_row({std::to_string(vips), name,
                     stats::TablePrinter::num(row.delivered_pct) + "%",
                     stats::TablePrinter::num(row.median_us),
                     stats::TablePrinter::num(row.p99_us),
                     stats::TablePrinter::num(row.offpath_pct) + "%",
                     std::to_string(row.server_cpu)});
    };
    add("sram+cpu", sram);
    add("remote", remote);
    add("remote+$", cached);

    if (vips > kSramEntries) {
      remote_beats_cpu_at_scale &=
          remote.delivered_pct > sram.delivered_pct ||
          remote.p99_us < sram.p99_us;
      big_cpu_p99 = sram.p99_us;
      big_remote_p99 = remote.p99_us;
    }
    cache_restores_fast_path &= cached.median_us <= remote.median_us + 0.05;
    (void)cache_restores_fast_path;
  }
  table.print("F1b: VIP translation designs vs working-set size");

  bench::note("tables are direct-indexed (the paper's 'most basic data "
              "structure'); slots are 4x overprovisioned and colliding "
              "VIPs fall out at populate time, which is why delivery is "
              "slightly below 100% - the co-design the paper's §7 calls "
              "for would close this gap.");
  char claim[160];
  std::snprintf(claim, sizeof(claim),
                "beyond SRAM, remote table p99 %.1f us vs CPU slow path "
                "p99 %.1f us",
                big_remote_p99, big_cpu_p99);
  results.verdict(remote_beats_cpu_at_scale, claim);
  results.verdict(cache_restores_fast_path,
                  "SRAM cache in front of the remote table restores "
                  "near-baseline median latency");
  return results.finish();
}
