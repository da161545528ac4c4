// A11 (robustness) — congestion control for the external-memory channel.
//
// The paper's switch craft RDMA requests toward the memory server at
// data-plane speed; nothing in the HotNets text says what happens when
// that traffic meets a congested fabric. This matrix answers it with the
// full RoCEv2 toolchain the repo now models: ECN CE-marking in the ToR
// traffic manager, CNP generation at the server RNIC, DCQCN rate control
// on the switch-side requester, and PFC as the lossless backstop.
//
//   designs   {no-CC, PFC-only, DCQCN, DCQCN+PFC}
//   workloads {uniform, 16:1 incast, chaos-loss}
//
// Every cell shares one fabric: a ToR with a 150 kB shared packet
// buffer, 16 tenant senders, one tenant sink, one memory server, and a
// switch-side channel offering ~1.3x the memory link's rate in one-MTU
// acknowledged WRITEs. Reported per cell: tenant goodput by a fixed
// deadline, memory-op completion and latency percentiles, CNP/pacing
// activity, buffer drops, and the PFC pause/HoL price.
//
// The expected shape, which verdicts hold every cell to:
//   - no-CC: the unpaced channel squats the shared buffer; tenant
//     goodput collapses and ~20% of memory ops are silently dropped.
//   - PFC-only: lossless, but the switch cannot pause itself — the
//     buffer stays pinned above XOFF, every host (memory server
//     included) is paused for the duration, and op p99 explodes.
//   - DCQCN: the channel paces to the marking point, freeing the buffer
//     — but nothing protects the tenants from their own incast.
//   - DCQCN+PFC: paced memory traffic plus a lossless backstop — tenant
//     goodput recovers to the uncongested ideal (>= 4.5x over no-CC) and
//     every memory op completes.
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/channel_set.hpp"
#include "core/primitive.hpp"
#include "faults/invariants.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "sim/parallel/sweep.hpp"
#include "stats/histogram.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"

using namespace xmem;

namespace {

enum class Design { kNoCc, kPfcOnly, kDcqcn, kBoth };
enum class Workload { kUniform, kIncast, kChaosLoss };

const char* design_name(Design d) {
  switch (d) {
    case Design::kNoCc: return "no-cc";
    case Design::kPfcOnly: return "pfc";
    case Design::kDcqcn: return "dcqcn";
    case Design::kBoth: return "dcqcn+pfc";
  }
  return "?";
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kUniform: return "uniform";
    case Workload::kIncast: return "incast";
    case Workload::kChaosLoss: return "chaos";
  }
  return "?";
}

constexpr int kSenders = 16;                 // 16:1 incast onto host kSenders
// One-MTU WRITEs so the RNIC's per-op overhead amortizes and the *link*
// is the bottleneck — DCQCN's marking point lives in the TM queue, so
// the paced rate must be achievable by the responder (4 KiB serves at
// ~53 Gb/s > the 40G link; 1 KiB would bottleneck inside the NIC, which
// emits no congestion signal at all).
constexpr std::uint64_t kOps = 2800;         // 4 KiB acknowledged WRITEs
constexpr std::size_t kOpBytes = 4096;
// ~1.3x the 40G memory link: sustained overload, the DCQCN paper's regime.
constexpr sim::Time kOpInterval = sim::nanoseconds(640);
constexpr sim::Time kTenantStart = sim::microseconds(300);
constexpr sim::Time kDeadline = sim::milliseconds(2);
constexpr std::int64_t kSharedBuffer = 100 * 1500;
constexpr std::int64_t kXoff = 20 * 1500;  // headroom for XOFF-reaction overshoot
constexpr std::int64_t kXon = 10 * 1500;
constexpr int kRdmaPfcClass = 3;  // RoCE rides its own 802.1Qbb class
constexpr std::int64_t kEcnThreshold = 9000;  // ~6 MTU standing queue
constexpr std::int64_t kIncastBurst = 128 * 1024;  // per sender

struct CellResult {
  double goodput_gbps = 0;       // tenant bytes delivered by kDeadline
  std::int64_t sink_bytes = 0;   // same, raw
  std::uint64_t completed = 0;   // memory ops acknowledged (whole run)
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t cnp_rx = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t ce_marked = 0;
  std::uint64_t buffer_drops = 0;
  std::uint64_t xoff_sent = 0;
  double mem_pause_us = 0;       // memory server's port: paused time
  std::uint64_t mem_hol = 0;     // ...and responses stuck behind it
  std::int64_t request_bytes = 0;
  std::int64_t tenant_offered = 0;
  sim::Time end_time = 0;
  std::size_t cc_violations = 0;
  /// Invariant failure details — printed by the driver after the merge
  /// so worker threads never interleave on stderr.
  std::vector<std::string> violation_lines;
  /// Serialized recorder output when requested; the caller writes the
  /// file (cells must not touch shared process state like the fs/stdout).
  std::string timeseries_json;
};

CellResult run_cell(Design design, Workload workload,
                    bool record_ts = false) {
  control::Testbed::Config cfg;
  cfg.hosts = kSenders + 1;
  cfg.memory_servers = 1;
  cfg.switch_config.tm.shared_buffer_bytes = kSharedBuffer;
  // One threshold serves every ECT flow (DCQCN's Kmin==Kmax form); the
  // tenant generators are not ECT, so only the RoCE traffic is marked.
  cfg.switch_config.tm.ecn_mark_threshold_bytes = kEcnThreshold;
  control::Testbed tb(cfg);

  if (workload == Workload::kChaosLoss) {
    // Lossy *control loop*: ACKs and CNPs from the memory server vanish
    // at 2% (direction 1 = frames sent from the host end). The
    // switch-to-host direction stays clean — PFC pause frames are
    // link-local control traffic a real MAC protects with its own FCS
    // retry budget, and losing an XON would just measure an 838 us
    // quanta expiry, not the CC machinery under test.
    tb.memory_server_link(0).set_loss_rate(0.02, /*seed=*/11,
                                           /*direction=*/1);
  }
  if (design == Design::kPfcOnly || design == Design::kBoth) {
    tb.tor().enable_pfc(kXoff, kXon, kRdmaPfcClass);
  }

  // The switch-side channel, wrapped in a one-shard ChannelSet so the
  // bench exercises the same CNP demux + cc_sane invariant the
  // primitives use. Gap tolerance keeps the chaos cells comparable (a
  // lost WRITE must not poison every later PSN).
  auto chan_cfg = tb.controller().setup_channel(
      tb.memory_server(0), tb.memory_server_port(0),
      {.region_bytes = 64 * 1024, .tolerate_psn_gaps = true});
  core::ChannelSet set(tb.tor(), {chan_cfg});
  if (design == Design::kDcqcn || design == Design::kBoth) {
    set.enable_congestion_control({});
  }

  // CC telemetry plane: per-channel counters + the current_rate gauge,
  // plus the memory server's pause/HoL gauges, sampled live.
  telemetry::MetricsRegistry registry;
  set.attach_telemetry(&registry, nullptr, "chan");
  tb.memory_server(0).register_metrics(registry, "memsrv");
  telemetry::TimeSeriesRecorder recorder(
      tb.sim(), telemetry::TimeSeriesRecorder::Config{
                    .period = sim::microseconds(20), .capacity = 512});
  recorder.track_prefix(registry, "chan");
  recorder.track_prefix(registry, "memsrv");
  recorder.start();

  // Ingress demux: CNPs feed the rate machine, ACKs close op latencies.
  std::unordered_map<std::uint32_t, sim::Time> pending;
  stats::Histogram op_lat_us;
  std::uint64_t completed = 0;
  tb.tor().add_ingress_stage(
      "a11-capture", [&](switchsim::PipelineContext& ctx) {
        const auto* msg = core::roce_view(ctx);
        if (!msg) return;
        auto shard = set.owner_of(*msg);
        if (!shard) return;
        if (set.maybe_cnp(*shard, *msg)) {
          ctx.consume();
          return;
        }
        auto it = pending.find(msg->bth.psn.raw());
        if (it != pending.end()) {
          op_lat_us.add(sim::to_microseconds(tb.sim().now() - it->second));
          pending.erase(it);
          ++completed;
        }
        ctx.consume();
      });

  // Memory workload: one 4 KiB acknowledged WRITE every 640 ns until
  // kOps are offered. Latency is offered-to-ACK, so pacing delay counts.
  const std::vector<std::uint8_t> payload(kOpBytes, 0xd6);
  std::uint64_t posted = 0;
  std::function<void()> post_next = [&] {
    const std::uint64_t va =
        chan_cfg.base_va + (posted % 16) * kOpBytes;
    const roce::Psn psn = set.at(0).post_write(va, payload, /*ack_req=*/true);
    pending.emplace(psn.raw(), tb.sim().now());
    if (++posted < kOps) tb.sim().schedule_in(kOpInterval, post_next);
  };
  tb.sim().schedule_at(0, [&] { post_next(); });

  // Tenant traffic onto host kSenders' port.
  host::Host& sink_host = tb.host(kSenders);
  host::PacketSink sink(sink_host);
  std::vector<std::unique_ptr<host::CbrTrafficGen>> gens;
  std::unique_ptr<host::IncastCoordinator> incast;
  std::int64_t tenant_offered = 0;
  if (workload == Workload::kUniform) {
    for (int i = 0; i < kSenders; ++i) {
      gens.push_back(std::make_unique<host::CbrTrafficGen>(
          tb.host(i),
          host::CbrTrafficGen::Config{
              .dst_mac = sink_host.mac(),
              .dst_ip = sink_host.ip(),
              .src_port = static_cast<std::uint16_t>(7000 + i),
              .frame_size = 1500,
              .rate = sim::mbps(1500),
              .packet_limit = 150}));
    }
    tenant_offered = kSenders * 150 * 1500;
    tb.sim().schedule_at(kTenantStart, [&] {
      for (auto& g : gens) g->start();
    });
  } else {
    std::vector<host::Host*> senders;
    for (int i = 0; i < kSenders; ++i) senders.push_back(&tb.host(i));
    incast = std::make_unique<host::IncastCoordinator>(
        senders, host::IncastCoordinator::Config{
                     .dst_mac = sink_host.mac(),
                     .dst_ip = sink_host.ip(),
                     .frame_size = 1500,
                     .burst_bytes_per_sender = kIncastBurst,
                     .sender_rate = sim::gbps(30)});
    incast->start(kTenantStart);
    tenant_offered = kSenders * kIncastBurst;
  }

  // Drive to the measurement deadline in slices (the sampler keeps the
  // event queue populated), snapshot tenant delivery, then drain fully:
  // paced backlogs, paused ports and in-flight ACKs all settle.
  for (sim::Time t = sim::microseconds(50); t <= kDeadline;
       t += sim::microseconds(50)) {
    tb.sim().run_until(t);
  }
  const std::int64_t sink_bytes = sink.bytes();
  recorder.stop();
  tb.sim().run();

  faults::InvariantChecker inv;
  inv.require_cc_sane(set);
  const auto violations = inv.run();

  CellResult r;
  if (record_ts) r.timeseries_json = recorder.to_json();
  for (const auto& v : violations) {
    r.violation_lines.push_back("a11: invariant " + v.name + ": " + v.detail);
  }
  r.sink_bytes = sink_bytes;
  r.goodput_gbps =
      static_cast<double>(sink_bytes) * 8.0 / sim::to_seconds(kDeadline) / 1e9;
  r.completed = completed;
  r.p50_us = op_lat_us.empty() ? 0.0 : op_lat_us.median();
  r.p99_us = op_lat_us.empty() ? 0.0 : op_lat_us.p99();
  r.cnp_rx = set.at(0).stats().cnp_rx;
  r.deferrals = set.at(0).stats().paced_deferrals;
  r.request_bytes = set.at(0).stats().request_bytes;
  r.ce_marked = tb.memory_server(0).rnic().stats().ce_marked_rx;
  r.buffer_drops = tb.tor().stats().buffer_drops;
  r.xoff_sent = tb.tor().stats().pfc_xoff_sent;
  r.mem_pause_us =
      sim::to_microseconds(tb.memory_server(0).port(0).pause_time_total());
  r.mem_hol = tb.memory_server(0).port(0).hol_blocked_packets();
  r.tenant_offered = tenant_offered;
  r.end_time = tb.sim().now();
  r.cc_violations = violations.size();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "A11 (robustness)",
      "congestion control matrix for the RDMA memory channel",
      "DCQCN+PFC recovers >= 2x tenant goodput under a 16:1 incast vs an "
      "uncontrolled channel, while every memory op completes with bounded "
      "p99");
  bench::BenchResults results(argc, argv);
  const std::string ts_path =
      bench::flag_value(argc, argv, "--timeseries");

  const Design designs[] = {Design::kNoCc, Design::kPfcOnly, Design::kDcqcn,
                            Design::kBoth};
  const Workload workloads[] = {Workload::kUniform, Workload::kIncast,
                                Workload::kChaosLoss};

  // The 12 independent cells fan across the sweep driver; the merge is
  // in cell-index order, so tables, metrics, and the timeseries file
  // come out byte-identical at any --jobs. Cells return their recorder
  // output and invariant lines instead of touching the filesystem or
  // stderr from worker threads.
  std::vector<std::pair<Workload, Design>> grid;
  for (const Workload w : workloads) {
    for (const Design d : designs) grid.emplace_back(w, d);
  }
  sim::par::SweepDriver<CellResult> driver(
      {.jobs = bench::parse_jobs(argc, argv), .seed = 0xa11cc5eedULL});
  std::vector<sim::par::SweepDriver<CellResult>::Cell> cell_fns;
  for (const auto& [w, d] : grid) {
    const bool record_ts =
        !ts_path.empty() && w == Workload::kIncast && d == Design::kBoth;
    cell_fns.emplace_back([w, d, record_ts](sim::par::ReplicaContext&) {
      return run_cell(d, w, record_ts);
    });
  }
  const std::vector<CellResult> merged = driver.run(cell_fns);
  results.set_sweep_info(driver.jobs(), sim::par::host_cores());
  std::printf("sweep: %zu cells across %zu worker(s)\n", merged.size(),
              driver.jobs());

  std::unordered_map<int, CellResult> cells;
  auto key = [](Workload w, Design d) {
    return static_cast<int>(w) * 8 + static_cast<int>(d);
  };
  bool cc_all_sane = true;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const CellResult& r = merged[i];
    for (const std::string& line : r.violation_lines) {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
    if (!r.timeseries_json.empty()) {
      results.write_timeseries(ts_path, r.timeseries_json);
    }
    cc_all_sane = cc_all_sane && r.cc_violations == 0;
    cells[key(grid[i].first, grid[i].second)] = r;
  }

  for (const Workload w : workloads) {
    stats::TablePrinter table({"design", "tenant Gb/s", "mem ops", "p50 (us)",
                               "p99 (us)", "CNPs", "paced", "drops",
                               "pause (us)"});
    for (const Design d : designs) {
      const CellResult& r = cells[key(w, d)];
      table.add_row({design_name(d), stats::TablePrinter::num(r.goodput_gbps),
                     std::to_string(r.completed) + "/" + std::to_string(kOps),
                     stats::TablePrinter::num(r.p50_us),
                     stats::TablePrinter::num(r.p99_us),
                     std::to_string(r.cnp_rx), std::to_string(r.deferrals),
                     std::to_string(r.buffer_drops),
                     stats::TablePrinter::num(r.mem_pause_us)});
    }
    table.print(std::string("A11: ") + workload_name(w) +
                " tenant workload vs the external-memory channel");
    for (const Design d : designs) {
      const CellResult& r = cells[key(w, d)];
      const std::string p =
          std::string(workload_name(w)) + "/" + design_name(d);
      results.add(p + "_goodput_gbps", r.goodput_gbps, "Gbps");
      results.add(p + "_op_p99_us", r.p99_us, "us");
      results.add(p + "_ops_completed", static_cast<double>(r.completed),
                  "ops");
    }
  }

  // The uncongested reference: all offered tenant bytes inside the window.
  auto share = [&](Workload w, Design d) {
    const double ideal =
        static_cast<double>(cells[key(w, Design::kBoth)].tenant_offered) *
        8.0 / sim::to_seconds(kDeadline) / 1e9;
    return cells[key(w, d)].goodput_gbps / ideal;
  };
  auto within = [](double x, double lo, double hi) {
    return x >= lo && x <= hi;
  };

  const CellResult& nocc = cells[key(Workload::kIncast, Design::kNoCc)];
  const CellResult& pfc = cells[key(Workload::kIncast, Design::kPfcOnly)];
  const CellResult& dcqcn = cells[key(Workload::kIncast, Design::kDcqcn)];
  const CellResult& both = cells[key(Workload::kIncast, Design::kBoth)];
  const double recovery =
      nocc.goodput_gbps > 0 ? both.goodput_gbps / nocc.goodput_gbps : 0.0;

  // Determinism: the most machinery-heavy cell, re-run bit-for-bit —
  // serially, on this thread. Against a --jobs > 1 sweep this doubles
  // as the parallel-vs-serial replica-isolation check.
  const CellResult twin = run_cell(Design::kBoth, Workload::kIncast);
  const bool deterministic = twin.sink_bytes == both.sink_bytes &&
                             twin.completed == both.completed &&
                             twin.cnp_rx == both.cnp_rx &&
                             twin.request_bytes == both.request_bytes &&
                             twin.end_time == both.end_time;

  results.add("incast/cc_recovery_x", recovery, "x");
  results.add("incast/both_goodput_gbps", both.goodput_gbps, "Gbps");
  results.add("incast/both_op_completion",
              static_cast<double>(both.completed) / static_cast<double>(kOps),
              "ratio");

  // Every cell's regime. Chaos cells are held to their incast twins.
  bool collapsed = true;
  bool ops_regime = true;
  bool p99_regime = true;
  bool loss_tolerated = true;
  for (const auto& [w, d] : grid) {
    const CellResult& r = cells[key(w, d)];
    const bool paced = d == Design::kDcqcn || d == Design::kBoth;
    const double done =
        static_cast<double>(r.completed) / static_cast<double>(kOps);
    if (w == Workload::kIncast && d != Design::kBoth) {
      collapsed = collapsed && within(share(w, d), 0.1, 0.2);
    }
    if (w == Workload::kUniform && !paced) {
      collapsed = collapsed && within(share(w, d), 0.15, 0.35);
    }
    if (w != Workload::kChaosLoss) {
      ops_regime =
          ops_regime && (paced ? done >= 0.98 : within(done, 0.7, 0.85));
    } else {
      const CellResult& clean = cells[key(Workload::kIncast, d)];
      loss_tolerated =
          loss_tolerated &&
          static_cast<double>(r.completed) >=
              0.95 * static_cast<double>(clean.completed) &&
          within(r.goodput_gbps / clean.goodput_gbps, 0.95, 1.05);
    }
    p99_regime =
        p99_regime &&
        (paced ? within(r.p99_us, 300.0, 1000.0)
         : d == Design::kNoCc
             ? r.p99_us < 50.0
             : within(r.p99_us / r.mem_pause_us, 0.9, 1.1) && r.p99_us < 1500);
  }

  results.verdict(collapsed,
                  "without DCQCN+PFC the incast holds tenants to 10-20% of "
                  "the uncongested ideal; under uniform load the unpaced "
                  "channel squats the buffer, leaving them 15-35%");
  results.verdict(share(Workload::kUniform, Design::kDcqcn) >= 0.99 &&
                      share(Workload::kUniform, Design::kBoth) >= 0.99,
                  "uniform load: with DCQCN armed, tenants get their whole "
                  "offered load");
  char claim[220];
  std::snprintf(claim, sizeof(claim),
                "DCQCN+PFC recovers %.1fx tenant goodput under the 16:1 "
                "incast (%.2f -> %.2f Gb/s; uncongested %.2f)",
                recovery, nocc.goodput_gbps, both.goodput_gbps,
                both.goodput_gbps / share(Workload::kIncast, Design::kBoth));
  // The incast goodput bands imply this bar: 0.9 / 0.2 of the ideal.
  results.verdict(recovery >= 4.5, claim);
  results.verdict(share(Workload::kIncast, Design::kBoth) >= 0.9,
                  "DCQCN+PFC lands within 10% of the uncongested ideal");
  results.verdict(both.completed == kOps && nocc.completed < kOps,
                  "pacing + the PFC backstop completes every memory op; "
                  "the uncontrolled channel silently drops ops");
  results.verdict(ops_regime,
                  "without loss, the unpaced channel silently drops 15-30% "
                  "of memory ops and the paced one under 2%");
  results.verdict(p99_regime,
                  "op p99: the unpaced channel answers in < 50 us, DCQCN "
                  "pacing holds 0.3-1 ms, and PFC-only waits out its "
                  "memory-server pause (within 10%, < 1.5 ms)");
  results.verdict(both.p99_us < pfc.p99_us,
                  "DCQCN bounds op p99 where PFC-only head-of-line blocks "
                  "the ACK path");
  results.verdict(pfc.mem_pause_us > both.mem_pause_us && pfc.mem_hol > 0,
                  "PFC-only pays in pause time and HoL-blocked responses");
  results.verdict(
      dcqcn.cnp_rx > 0 && dcqcn.deferrals > 0 && nocc.cnp_rx > 0 &&
          nocc.deferrals == 0,
      "CNPs flow in every design; only armed channels react");
  results.verdict(cc_all_sane,
                  "cc_sane invariant holds across all 12 cells (chaos "
                  "included)");
  results.verdict(loss_tolerated,
                  "2% loss on the memory link: every design still completes "
                  ">= 95% of its loss-free ops, and tenant goodput moves "
                  "< 5%");
  results.verdict(deterministic, "incast/dcqcn+pfc cell is bit-deterministic");
  return results.finish();
}
