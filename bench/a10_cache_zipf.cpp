// A10 — local SRAM cache vs Zipf traffic: miss-rate curves and the
// latency cliff the cache removes.
//
// A 1024-flow universe with Zipf-distributed popularity drives the
// bounce-mode lookup table. Three sweeps:
//
//   1. Miss-rate curves: cache capacity (0.25%..16% of the flow
//      universe) x Zipf skew (0.6..1.2), at a rate the memory link can
//      absorb uncached — pure policy/skew behaviour.
//   2. Latency cliff: every uncached lookup READs a 2 KB entry, so the
//      memory link's response direction saturates near 2.3 M lookups/s.
//      Offered load is ~3.2 M packets/s: without a cache the response
//      queue grows for the whole run and p50 climbs into milliseconds;
//      a 1%-capacity cache absorbs the hot head of the Zipf
//      distribution, keeps the miss stream under link capacity, and p50
//      stays in microseconds, at least 500x apart.
//   3. Churn: a control plane rewriting random entries (write-through
//      invalidate + refetch) erodes the hit rate gracefully.
//
// Plus a policy shoot-out (FIFO vs LRU vs segmented LFU) at the cliff
// operating point. All runs are deterministic (seeded Zipf, seeded
// workload), so the verdicts hold the hit rates to analytic models for
// independent Zipf lookups (Che's approximation for LRU) and the cliff
// to fixed bars.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/lookup_table.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/flow.hpp"
#include "net/packet.hpp"
#include "sim/parallel/sweep.hpp"
#include "sim/rng.hpp"

using namespace xmem;

namespace {

constexpr std::uint64_t kFlows = 1024;
constexpr std::uint16_t kBasePort = 7000;
constexpr std::uint16_t kDstPort = 9000;
constexpr std::size_t kFrameSize = 256;
constexpr std::size_t kEntryBytes = 2048;
// 32768 slots for 1024 flows: few enough index collisions (~16 expected)
// that they don't distort the hit-rate curves.
constexpr std::size_t kRegionBytes = std::size_t{1} << 26;
constexpr std::uint64_t kSeed = 0xa10cac4eULL;

/// CbrTrafficGen with a Zipf-distributed source port: each packet
/// belongs to flow z ~ Zipf(kFlows, alpha), i.e. src_port kBasePort+z.
class ZipfTrafficGen {
 public:
  struct Config {
    net::MacAddress dst_mac;
    net::Ipv4Address dst_ip;
    double alpha = 0.99;
    sim::Bandwidth rate = sim::gbps(1);
    std::uint64_t packet_limit = 0;
  };

  ZipfTrafficGen(host::Host& h, Config config)
      : host_(&h),
        config_(config),
        rng_(kSeed),
        zipf_(kFlows, config.alpha, rng_),
        interval_(sim::transmission_time(
            static_cast<std::int64_t>(kFrameSize), config.rate)) {}

  void start() {
    host_->simulator().schedule_in(0, [this]() { send_next(); });
  }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] std::uint64_t sent() const { return sent_; }

 private:
  void send_next() {
    if (sent_ >= config_.packet_limit) {
      finished_ = true;
      return;
    }
    const std::size_t overhead = net::kEthernetHeaderBytes +
                                 net::kIpv4HeaderBytes + net::kUdpHeaderBytes;
    std::vector<std::uint8_t> payload(kFrameSize - overhead, 0);
    host::ProbeHeader probe{sent_, host_->simulator().now()};
    probe.write_to(payload);
    const auto flow = static_cast<std::uint16_t>(zipf_());
    net::Packet packet = net::build_udp_packet(
        host_->mac(), config_.dst_mac, host_->ip(), config_.dst_ip,
        static_cast<std::uint16_t>(kBasePort + flow), kDstPort, payload);
    packet.meta().created = host_->simulator().now();
    packet.meta().app_seq = sent_;
    ++sent_;
    host_->send(std::move(packet));
    host_->simulator().schedule_in(interval_, [this]() { send_next(); });
  }

  host::Host* host_;
  Config config_;
  sim::Rng rng_;
  sim::ZipfGenerator zipf_;
  sim::Time interval_;
  std::uint64_t sent_ = 0;
  bool finished_ = false;
};

struct RunResult {
  double hit_rate = 0;     // positive cache hits / keyed lookups
  double miss_rate = 0;    // 1 - hit_rate
  double p50_us = 0;       // end-to-end packet latency median
  double p99_us = 0;
  std::uint64_t delivered = 0;
  std::uint64_t invalidations = 0;
};

struct RunSpec {
  std::size_t cache_capacity = 0;
  core::LookupCache::Policy policy = core::LookupCache::Policy::kLru;
  double alpha = 0.99;
  sim::Bandwidth rate = sim::gbps(2);
  std::uint64_t packets = 20'000;
  /// Control-plane entry rewrites per second (0 = static table). Each
  /// rewrite re-installs a uniformly random flow's entry and invalidates
  /// the local copy.
  double churn_per_sec = 0;
};

RunResult run_scenario(const RunSpec& spec, sim::par::ReplicaContext& ctx) {
  // Deep RX ring: the stock 128-deep queue tail-drops under overload,
  // which caps queueing delay at ~35 us and silently loses bounced
  // packets. A deep ring turns oversubscription into honest, visible
  // queueing delay — the cliff this bench measures.
  control::Testbed tb({.nic = {.rx_queue_depth = 1 << 16}});
  auto channel = tb.controller().setup_channel(tb.host(2), tb.port_of(2),
                                               {.region_bytes = kRegionBytes});
  core::LookupTablePrimitive lt(
      tb.tor(), channel,
      {.entry_bytes = kEntryBytes,
       .cache_capacity = spec.cache_capacity,
       .cache_policy = spec.policy,
       // Saturation queueing reaches single-digit milliseconds; the
       // timeout scavenger must not mistake a queued response for a dead
       // shard, or the health machine would flip the run into degraded
       // passthrough and erase the very cliff being measured.
       .lookup_timeout = sim::milliseconds(50)});

  auto region = control::ChannelController::region_bytes(tb.host(2), channel);
  auto install_flow = [&](std::uint64_t flow) {
    net::FiveTuple t;
    t.src_ip = tb.host(0).ip();
    t.dst_ip = tb.host(1).ip();
    t.src_port = static_cast<std::uint16_t>(kBasePort + flow);
    t.dst_port = kDstPort;
    t.protocol = 17;
    const auto k = t.key_bytes();
    switchsim::Action a;
    a.kind = switchsim::Action::Kind::kForward;
    a.port = static_cast<std::uint16_t>(tb.port_of(1));
    core::LookupTablePrimitive::install_entry(
        region, kEntryBytes, std::span<const std::uint8_t>(k.data(), k.size()),
        a, 0x9e3779b97f4a7c15ULL);
    return std::vector<std::uint8_t>(k.begin(), k.end());
  };
  std::vector<std::vector<std::uint8_t>> keys;
  keys.reserve(kFlows);
  for (std::uint64_t f = 0; f < kFlows; ++f) keys.push_back(install_flow(f));

  host::PacketSink sink(tb.host(1));
  ZipfTrafficGen gen(tb.host(0), {.dst_mac = tb.host(1).mac(),
                                  .dst_ip = tb.host(1).ip(),
                                  .alpha = spec.alpha,
                                  .rate = spec.rate,
                                  .packet_limit = spec.packets});

  // The churning control plane: rewrite a flow's remote entry and push
  // the invalidation through to the switch cache. Rewrites follow the
  // same Zipf popularity as the traffic (hot entries are updated most),
  // so churn contends directly with the cached working set — the
  // worst case for write-through invalidation.
  sim::Rng churn_rng = ctx.rng.split(1);
  sim::ZipfGenerator churn_zipf(kFlows, spec.alpha, churn_rng);
  std::function<void()> churn_tick;
  const sim::Time churn_interval =
      spec.churn_per_sec > 0
          ? static_cast<sim::Time>(1e12 / spec.churn_per_sec)
          : 0;
  churn_tick = [&]() {
    if (gen.finished()) return;  // stop with the workload: lets the sim drain
    const std::uint64_t flow = churn_zipf();
    install_flow(flow);
    lt.invalidate_cached(keys[flow]);
    tb.sim().schedule_in(churn_interval, churn_tick);
  };
  if (churn_interval > 0) tb.sim().schedule_in(churn_interval, churn_tick);

  gen.start();
  tb.sim().run();

  RunResult r;
  const auto& st = lt.stats();
  const double keyed =
      static_cast<double>(st.cache_hits + st.remote_lookups);
  r.hit_rate = keyed > 0 ? static_cast<double>(st.cache_hits) / keyed : 0.0;
  r.miss_rate = 1.0 - r.hit_rate;
  r.p50_us = sink.latency_us().percentile(50);
  r.p99_us = sink.latency_us().percentile(99);
  r.delivered = sink.packets();
  r.invalidations = lt.cache().stats().invalidations;
  if (st.degraded_passthrough != 0) {
    std::fprintf(stderr,
                 "a10: WARNING degraded_passthrough=%llu (health machine "
                 "tripped; latencies are not trustworthy)\n",
                 static_cast<unsigned long long>(st.degraded_passthrough));
  }
  return r;
}

std::string pct(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", frac * 100.0);
  return buf;
}

/// Hit rate of a `capacity`-entry cache under independent Zipf(alpha)
/// lookups of kFlows flows. LFU holds the most popular flows. LRU is
/// Che's approximation: flow p is cached with probability 1 - exp(-p T),
/// T set so the expected occupancy is `capacity`; FIFO uses p T / (1 + p T).
double model_hit_rate(core::LookupCache::Policy policy, double alpha,
                      std::size_t capacity) {
  std::vector<double> p(kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) {
    p[i] = std::pow(static_cast<double>(i + 1), -alpha);
  }
  const double norm = std::accumulate(p.begin(), p.end(), 0.0);
  for (double& x : p) x /= norm;
  if (policy == core::LookupCache::Policy::kLfu) {
    return std::accumulate(p.begin(), p.begin() + static_cast<long>(capacity),
                           0.0);
  }
  // Expected occupancy (hits = false) or hit rate (hits = true) at t.
  auto total = [&](double t, bool hits) {
    double sum = 0;
    for (const double x : p) {
      const double in = policy == core::LookupCache::Policy::kLru
                            ? 1.0 - std::exp(-x * t)
                            : x * t / (1.0 + x * t);
      sum += (hits ? x : 1.0) * in;
    }
    return sum;
  };
  double lo = 0;
  double hi = 1e12;
  for (int i = 0; i < 200; ++i) {
    const double mid = (lo + hi) / 2;
    (total(mid, false) < static_cast<double>(capacity) ? lo : hi) = mid;
  }
  return total(hi, true);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchResults results(argc, argv);
  bench::banner(
      "A10", "lookup cache vs Zipf traffic (size x skew x churn)",
      "a small SRAM cache absorbs heavy-tailed popularity; without it the "
      "2 KB-entry READ stream saturates the memory link (fig3a-style "
      "latency cliff)");

  // All 24 scenarios below are independent single-threaded simulations;
  // enqueue them in presentation order, fan them across the sweep
  // driver, and render tables from the index-ordered results. The
  // artifact is byte-identical at any --jobs because every value below
  // is a function of (kSeed, cell index, spec) only.
  const std::vector<std::size_t> sizes = {2, 10, 40, 160};  // of 1024 flows
  const std::vector<double> skews = {0.6, 0.9, 0.99, 1.2};

  // Cells 16-17: the latency cliff. 4.7 Gb/s of 256 B frames = ~2.3 M
  // lookups/s. Each uncached lookup costs the memory server's NIC a
  // deposit WRITE (~230 ns) plus a 2 KB entry READ (~315 ns), so it
  // serves ~1.8 M lookups/s: the uncached stream oversubscribes it
  // 1.25x and the RX backlog grows for the whole run, while the cache's
  // miss stream stays under capacity.
  const RunSpec cliff_base = {.cache_capacity = 0,
                              .alpha = 0.99,
                              .rate = sim::gbps(4.7),
                              .packets = 45'000};
  RunSpec cliff_cached = cliff_base;
  cliff_cached.cache_capacity = kFlows / 100;  // 1% of the flow universe
  cliff_cached.policy = core::LookupCache::Policy::kLfu;

  std::vector<RunSpec> specs;
  for (const std::size_t size : sizes) {
    for (const double alpha : skews) {
      specs.push_back(
          {.cache_capacity = size, .alpha = alpha, .rate = sim::gbps(2)});
    }
  }
  const std::size_t cliff_at = specs.size();
  specs.push_back(cliff_base);
  specs.push_back(cliff_cached);
  const std::size_t churn_at = specs.size();
  const std::vector<double> churns = {0.0, 50'000.0, 200'000.0};
  for (const double churn : churns) {
    specs.push_back({.cache_capacity = kFlows / 100,
                     .alpha = 0.99,
                     .rate = sim::gbps(2),
                     .churn_per_sec = churn});
  }
  const std::size_t policy_at = specs.size();
  const std::vector<core::LookupCache::Policy> policies = {
      core::LookupCache::Policy::kFifo, core::LookupCache::Policy::kLru,
      core::LookupCache::Policy::kLfu};
  for (const auto policy : policies) {
    RunSpec spec = cliff_cached;
    spec.policy = policy;
    specs.push_back(spec);
  }

  sim::par::SweepDriver<RunResult> driver(
      {.jobs = bench::parse_jobs(argc, argv), .seed = kSeed});
  std::vector<sim::par::SweepDriver<RunResult>::Cell> cells;
  cells.reserve(specs.size());
  for (const RunSpec& spec : specs) {
    cells.emplace_back([spec](sim::par::ReplicaContext& ctx) {
      return run_scenario(spec, ctx);
    });
  }
  const std::vector<RunResult> res = driver.run(cells);
  results.set_sweep_info(driver.jobs(), sim::par::host_cores());
  std::printf("sweep: %zu cells across %zu worker(s)\n", cells.size(),
              driver.jobs());

  // --- 1. Miss-rate curves: capacity x skew ---------------------------
  stats::TablePrinter curve({"cache (entries)", "alpha=0.6", "alpha=0.9",
                             "alpha=0.99", "alpha=1.2"});
  auto grid = [&](std::size_t si, std::size_t ai) -> const RunResult& {
    return res[si * skews.size() + ai];
  };
  bool grid_monotone = true;
  double grid_worst_dev = 0;
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const std::size_t size = sizes[si];
    std::vector<std::string> row = {std::to_string(size) + " (" +
                                    pct(static_cast<double>(size) / kFlows) +
                                    ")"};
    for (std::size_t ai = 0; ai < skews.size(); ++ai) {
      const RunResult& r = grid(si, ai);
      if ((si > 0 && r.hit_rate <= grid(si - 1, ai).hit_rate) ||
          (ai > 0 && r.hit_rate <= grid(si, ai - 1).hit_rate)) {
        grid_monotone = false;
      }
      const double che = model_hit_rate(core::LookupCache::Policy::kLru,
                                        skews[ai], size);
      grid_worst_dev = std::max(grid_worst_dev, std::abs(r.hit_rate / che - 1));
      row.push_back(pct(r.miss_rate));
      char metric[64];
      std::snprintf(metric, sizeof(metric), "hit_rate/a%.2f/c%zu", skews[ai],
                    size);
      results.add(metric, r.hit_rate, "ratio");
    }
    curve.add_row(row);
  }
  curve.print("miss rate vs cache capacity and Zipf skew (LRU, 20k packets)");

  // --- 2. The latency cliff at 1% capacity ----------------------------
  const RunResult& nocache = res[cliff_at];
  const RunResult& cached = res[cliff_at + 1];

  stats::TablePrinter cliff({"configuration", "p50 (us)", "p99 (us)",
                             "hit rate", "delivered"});
  cliff.add_row({"no cache", stats::TablePrinter::num(nocache.p50_us),
                 stats::TablePrinter::num(nocache.p99_us), "-",
                 std::to_string(nocache.delivered)});
  cliff.add_row({"1% cache (LFU)", stats::TablePrinter::num(cached.p50_us),
                 stats::TablePrinter::num(cached.p99_us),
                 pct(cached.hit_rate), std::to_string(cached.delivered)});
  cliff.print("latency cliff at alpha=0.99, 2.3 M lookups/s offered");

  const double speedup =
      cached.p50_us > 0 ? nocache.p50_us / cached.p50_us : 0.0;
  results.add("zipf099/nocache_p50", nocache.p50_us, "us");
  results.add("zipf099/cache1pct_p50", cached.p50_us, "us");
  results.add("zipf099/cache1pct_hit_rate", cached.hit_rate, "ratio");
  results.add("zipf099/p50_speedup", speedup, "x");

  // --- 3. Churn: control-plane rewrites vs hit rate -------------------
  stats::TablePrinter churn_tbl(
      {"churn (updates/s)", "hit rate", "invalidations", "p50 (us)"});
  for (std::size_t ci = 0; ci < churns.size(); ++ci) {
    const RunResult& r = res[churn_at + ci];
    churn_tbl.add_row({std::to_string(static_cast<int>(churns[ci])),
                       pct(r.hit_rate), std::to_string(r.invalidations),
                       stats::TablePrinter::num(r.p50_us)});
    char metric[64];
    std::snprintf(metric, sizeof(metric), "churn%d/hit_rate",
                  static_cast<int>(churns[ci] / 1000));
    results.add(metric, r.hit_rate, "ratio");
  }
  churn_tbl.print("hit rate under control-plane churn (1% cache, alpha=0.99)");

  // --- 4. Policy shoot-out at the cliff operating point ---------------
  stats::TablePrinter pol_tbl({"policy", "hit rate", "model", "p50 (us)"});
  double policy_worst_ratio = 1.0;
  for (std::size_t pi = 0; pi < policies.size(); ++pi) {
    const RunResult& r = res[policy_at + pi];
    const std::string name(core::LookupCache::policy_name(policies[pi]));
    const double model =
        model_hit_rate(policies[pi], 0.99, cliff_cached.cache_capacity);
    policy_worst_ratio = std::min(policy_worst_ratio, r.hit_rate / model);
    pol_tbl.add_row({name, pct(r.hit_rate), pct(model),
                     stats::TablePrinter::num(r.p50_us)});
    results.add("policy/" + name + "_hit_rate", r.hit_rate, "ratio");
  }
  pol_tbl.print("eviction policy comparison (1% cache, alpha=0.99)");

  results.verdict(grid_monotone && grid_worst_dev < 0.15,
                  "LRU hit rate rises with cache size and with alpha in all "
                  "16 cells, each within 15% of Che's approximation for "
                  "independent Zipf lookups");

  // The latency cliff: the uncached RX backlog grows for the whole run,
  // so its p50 lands in milliseconds; the cached miss stream stays under
  // the NIC's capacity, so its p50 stays at a few microseconds.
  char claim[200];
  std::snprintf(claim, sizeof(claim),
                "1%% cache cuts p50 %.0fx (%.0f us -> %.1f us) at "
                "alpha=0.99, hit rate %.0f%% (bar: uncached 1-4 ms, cached "
                "< 5 us, >= 500x)",
                speedup, nocache.p50_us, cached.p50_us,
                cached.hit_rate * 100.0);
  results.verdict(nocache.p50_us >= 1000.0 && nocache.p50_us <= 4000.0 &&
                      cached.p50_us < 5.0 && speedup >= 500.0,
                  claim);

  // The churn-free run repeats the grid's 10-entry, alpha=0.99 cell.
  bool churn_lowers = res[churn_at].hit_rate == grid(1, 2).hit_rate;
  for (std::size_t ci = churn_at + 1; ci < policy_at; ++ci) {
    churn_lowers = churn_lowers && res[ci].hit_rate < res[ci - 1].hit_rate;
  }
  results.verdict(churn_lowers && res[policy_at - 1].hit_rate >=
                                      0.85 * res[churn_at].hit_rate,
                  "churn lowers the hit rate gracefully: monotone in the "
                  "rewrite rate, >= 85% of churn-free at 200k rewrites/s");

  // At 2.3 M lookups/s a repeat that arrives while its flow's miss is in
  // flight misses too, so every policy lands somewhat below its model.
  const double fifo = res[policy_at].hit_rate;
  const double lru = res[policy_at + 1].hit_rate;
  const double lfu = res[policy_at + 2].hit_rate;
  results.verdict(lfu > lru && lru > fifo && policy_worst_ratio >= 0.75,
                  "at alpha=0.99, LFU > LRU > FIFO, each at >= 75% of its "
                  "model");
  return results.finish();
}
