// F1c (§2.3 / Fig. 1c) — extending the state store for telemetry.
//
// The paper: switch SRAM caps a telemetry system at <100 MB of state
// while 100 GB of server DRAM raises the number of counters by ~1000x,
// with per-packet updates at zero CPU. This bench demonstrates:
//   (1) capacity arithmetic: counters that fit in SRAM vs remote DRAM,
//   (2) exact per-flow counting over remote memory for a flow count far
//       beyond what dedicated switch registers could hold,
//   (3) a Count Sketch running against the same remote store, with
//       heavy-hitter estimation error reported,
//   (4) the bandwidth cost and the zero-CPU property,
//   (5) the cost of the observability layer itself: the identical
//       scenario runs three ways — telemetry dormant; the always-on
//       plane (INT tagging on every hop, an IntCollector at the sink, a
//       TimeSeriesRecorder sampling every registry metric, an armed
//       FlightRecorder); and deep tracing (always-on plus per-op spans
//       mirrored into the flight ring). A host-timed verdict holds the
//       always-on plane < 3% (int_overhead_pct) outside sanitizer
//       builds; deep tracing is reported as the price of a debugging
//       session.
#include <algorithm>
#include <ctime>
#include <cstdio>
#include <numeric>
#include <vector>

#include "apps/count_sketch.hpp"
#include "bench_util.hpp"
#include "control/testbed.hpp"
#include "core/state_store.hpp"
#include "host/sink.hpp"
#include "host/traffic_gen.hpp"
#include "net/flow.hpp"
#include "net/int_stack.hpp"
#include "sim/rng.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/int_collector.hpp"
#include "telemetry/op_tracer.hpp"
#include "telemetry/sim_metrics.hpp"
#include "telemetry/timeseries.hpp"

using namespace xmem;

namespace {

constexpr std::uint64_t kFlows = 8192;
constexpr std::uint64_t kPackets = 60000;

/// Zipf-skewed multi-flow workload: random source port per packet drawn
/// from kFlows flows.
class FlowWorkload {
 public:
  FlowWorkload(control::Testbed& tb, sim::Bandwidth rate)
      : tb_(&tb), rng_(7), zipf_(kFlows, 0.99, rng_),
        interval_(sim::transmission_time(128, rate)) {
    truth_.assign(kFlows, 0);
  }

  void start() { send_next(); }
  [[nodiscard]] bool done() const { return sent_ >= kPackets; }
  [[nodiscard]] const std::vector<std::uint64_t>& truth() const {
    return truth_;
  }
  [[nodiscard]] net::FiveTuple tuple_of(std::uint64_t flow) const {
    return net::FiveTuple{tb_->host(0).ip(), tb_->host(1).ip(),
                          static_cast<std::uint16_t>(1000 + flow), 9000, 17};
  }

 private:
  void send_next() {
    if (sent_ >= kPackets) return;
    const std::uint64_t flow = zipf_();
    ++truth_[flow];
    net::Packet p = net::build_udp_packet(
        tb_->host(0).mac(), tb_->host(1).mac(), tb_->host(0).ip(),
        tb_->host(1).ip(), static_cast<std::uint16_t>(1000 + flow), 9000,
        std::vector<std::uint8_t>(64, 0));
    ++sent_;
    tb_->host(0).send(std::move(p));
    tb_->sim().schedule_in(interval_, [this]() { send_next(); });
  }

  control::Testbed* tb_;
  sim::Rng rng_;
  sim::ZipfGenerator zipf_;
  sim::Time interval_;
  std::uint64_t sent_ = 0;
  std::vector<std::uint64_t> truth_;
};

struct ScenarioResult {
  // Scenario outcome (identical across both runs by determinism).
  std::uint64_t total_counted = 0;
  std::uint64_t exact_flows = 0;
  std::uint64_t audited_flows = 0;
  double worst_rel_err = 0;
  std::int64_t fa_wire_bytes = 0;
  sim::Time traffic_end = 0;
  std::uint64_t cpu_packets = 0;
  std::vector<std::pair<double, double>> top10;  // truth, estimate
  // Engine cost. CPU time, not wall: the run is single-threaded, so
  // process CPU time measures the same work while staying stable when
  // the machine is shared. Per-slice times let the caller assemble a
  // noise-robust total (see main).
  double cpu_seconds = 0;
  std::vector<double> slice_cpu;
  std::uint64_t sim_events = 0;
  // Observability-run extras (zero on the bare run).
  std::uint64_t int_tagged = 0;
  std::uint64_t int_hop_records = 0;
  std::int64_t int_wire_bytes = 0;
  double path_p99_us = 0;
  std::uint64_t ts_ticks = 0;
  std::size_t ts_series = 0;
  std::uint64_t flight_events = 0;
  std::uint64_t trace_spans = 0;
  std::size_t flow_entries = 0;

  [[nodiscard]] double events_per_sec() const {
    return cpu_seconds > 0 ? static_cast<double>(sim_events) / cpu_seconds
                           : 0.0;
  }
};

/// Median of `v` (the upper middle value), or 1 when it is empty.
double median(std::vector<double> v) {
  if (v.empty()) return 1.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median over slices of num[i] / den[i].
double median_ratio(const std::vector<double>& num,
                    const std::vector<double>& den) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < num.size() && i < den.size(); ++i) {
    if (den[i] > 0.0) ratios.push_back(num[i] / den[i]);
  }
  return median(std::move(ratios));
}

double cpu_now_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// kBare: telemetry constructed but dormant. kObs: the always-on plane —
/// INT tagging + aggregate collection, metric sampling, armed flight
/// recorder. kDeep: kObs plus the opt-in depth — a per-flow table at the
/// sink and per-op span tracing mirrored into the flight ring — the
/// debugging configuration, reported but not gated.
enum class Mode { kBare, kObs, kDeep };

/// One full scenario instance, steppable in 1 ms sim slices. The driver
/// constructs one instance per mode and advances them ROUND-ROBIN, one
/// slice each: slice i of every mode executes within microseconds of
/// wall time of the others, so machine interference (hypervisor steal,
/// frequency excursions) lands on all modes' slice i nearly equally and
/// cancels out of the per-slice cost ratio.
class Scenario {
 public:
  explicit Scenario(Mode mode)
      : mode_(mode),
        // Host 2 is a dedicated memory server: its link is RDMA-fabric
        // infrastructure, which enable_int() leaves unmonitored.
        tb_({.hosts = 2, .memory_servers = 1}),
        exact_channel_(tb_.controller().setup_channel(
            tb_.host(2), tb_.port_of(2), {.region_bytes = 4 * kFlows * 8})),
        store_(tb_.tor(), exact_channel_, {}),
        sketch_channel_(tb_.controller().setup_channel(
            tb_.host(2), tb_.port_of(2), {.region_bytes = 3 * 4096 * 8})),
        sketch_(tb_.tor(), sketch_channel_),
        sink_(tb_.host(1)),
        tracer_(tb_.sim()),
        flight_(tb_.sim()),
        recorder_(tb_.sim(),
                  telemetry::TimeSeriesRecorder::Config{
                      .period = sim::microseconds(250), .capacity = 4096}),
        workload_(tb_, sim::gbps(1)) {
    tb_.link_of(2).set_tap([this](const net::Packet& p, sim::Time,
                                  int from_end) {
      if (from_end == 0) r_.fa_wire_bytes += p.wire_size();
    });

    // The observability layer is CONSTRUCTED identically in every mode —
    // registry, collector, recorder rings, flight buffer — and only
    // ACTIVATED in the measured ones. That mirrors how the feature ships
    // (the machinery exists; the question is what turning it on costs)
    // and keeps the modes' heap layouts identical, which single-run A/B
    // timing is otherwise surprisingly sensitive to.
    flight_.set_registry(&registry_);
    tracer_.set_flight_recorder(&flight_);
    telemetry::register_sim_metrics(registry_, tb_.sim());
    tb_.tor().register_metrics(registry_, "tor");
    tb_.link_of(2).register_metrics(registry_, "link2");
    // The per-op tracer only attaches in kDeep: span bookkeeping costs a
    // map insert/erase plus a retained span per op, which is
    // debug-session money, not always-on money. The metric callbacks
    // register either way.
    store_.attach_telemetry(&registry_,
                            mode == Mode::kDeep ? &tracer_ : nullptr, "store");
    collector_.register_metrics(registry_, "int");
    recorder_.track_prefix(registry_, "");  // every counter and gauge
    recorder_.track_rate(registry_, "sim/events_executed", "events/s");
    if (mode != Mode::kBare) {
      tb_.enable_int();
      sink_.set_int_collector(&collector_);
      recorder_.start();
    }
    workload_.start();
  }

  // The tap lambda captures `this`.
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Advance one 250 us sim slice, timing it. Returns false once the
  /// workload has sent everything and both primitives drained (the
  /// sketch's 16-op atomics window means its deferred queue keeps
  /// draining well past the last packet). The recorder (when on) keeps
  /// the event queue populated forever, so the sim must be driven in
  /// bounded slices rather than run-to-empty — and identical slicing in
  /// every mode keeps the events/s comparison honest. Slices are short
  /// (~2 ms of CPU) so the round-robin driver rotates modes fast: the
  /// shorter the rotation, the more equally interference lands on every
  /// mode's copy of a slice. A hard cap bounds the run if the sim ever
  /// failed to drain.
  bool step() {
    if (finished_ || r_.slice_cpu.size() >= 8000) return false;
    const double slice_start = cpu_now_seconds();
    tb_.sim().run_until(tb_.sim().now() + sim::microseconds(250));
    r_.slice_cpu.push_back(cpu_now_seconds() - slice_start);
    if (workload_.done()) {
      if (store_.quiescent() && sketch_.quiescent()) {
        finished_ = true;
        return false;
      }
      store_.flush();
    }
    return true;
  }

  [[nodiscard]] const std::vector<double>& slices() const {
    return r_.slice_cpu;
  }

  /// Audit the run and return its result (call once, after stepping to
  /// completion).
  ScenarioResult finish() {
    r_.traffic_end = tb_.sim().now();
    r_.sim_events = tb_.sim().events_executed();
    recorder_.stop();

    // Audit the exact counters: every flow's remote counter must equal
    // the ground truth (collisions DO alias counters — count aliased
    // flows separately).
    auto region =
        control::ChannelController::region_bytes(tb_.host(2), exact_channel_);
    const std::uint64_t n_counters = region.size() / 8;
    for (std::size_t i = 0; i + 8 <= region.size(); i += 8) {
      r_.total_counted += rnic::load_le64(region.subspan(i, 8));
    }
    for (std::uint64_t f = 0; f < kFlows; ++f) {
      if (workload_.truth()[f] == 0) continue;
      ++r_.audited_flows;
      const auto tuple = workload_.tuple_of(f);
      const std::uint64_t idx =
          net::flow_hash(tuple, 0x517cc1b727220a95ULL) % n_counters;
      const std::uint64_t counted =
          rnic::load_le64(region.subspan(idx * 8, 8));
      if (counted >= workload_.truth()[f]) {
        ++r_.exact_flows;  // >= under aliasing
      }
    }

    // Sketch estimates for the top-10 flows.
    auto sketch_region =
        control::ChannelController::region_bytes(tb_.host(2), sketch_channel_);
    std::vector<std::uint64_t> ranks(kFlows);
    for (std::uint64_t f = 0; f < kFlows; ++f) ranks[f] = f;
    std::sort(ranks.begin(), ranks.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                return workload_.truth()[a] > workload_.truth()[b];
              });
    for (int rank = 0; rank < 10; ++rank) {
      const std::uint64_t f = ranks[static_cast<std::size_t>(rank)];
      const double truth = static_cast<double>(workload_.truth()[f]);
      const double est = static_cast<double>(sketch_.estimate(
          sketch_region, net::flow_hash(workload_.tuple_of(f))));
      r_.worst_rel_err =
          std::max(r_.worst_rel_err, std::abs(est - truth) / truth);
      r_.top10.emplace_back(truth, est);
    }
    r_.cpu_packets = tb_.host(2).cpu_packets();

    if (mode_ != Mode::kBare) {
      r_.int_tagged = collector_.tagged_packets();
      r_.int_hop_records = collector_.hop_records();
      r_.int_wire_bytes = collector_.wire_bytes();
      if (!collector_.path_latency_us().empty()) {
        r_.path_p99_us = collector_.path_latency_us().p99();
      }
      r_.ts_ticks = recorder_.ticks();
      r_.ts_series = recorder_.series_count();
      r_.flight_events = flight_.total_recorded();
      r_.trace_spans = tracer_.stats().spans_closed;
      r_.flow_entries = collector_.flows().size();
    }
    return r_;
  }

  [[nodiscard]] std::string timeseries_json() const {
    return recorder_.to_json();
  }

 private:
  Mode mode_;
  ScenarioResult r_;
  control::Testbed tb_;
  control::RdmaChannelConfig exact_channel_;
  core::StateStorePrimitive store_;
  control::RdmaChannelConfig sketch_channel_;
  apps::CountSketchApp sketch_;
  host::PacketSink sink_;
  telemetry::MetricsRegistry registry_;
  telemetry::OpTracer tracer_;
  telemetry::FlightRecorder flight_;
  telemetry::IntCollector collector_{telemetry::IntCollector::Config{
      // The flow table is opt-in depth: the always-on plane collects
      // aggregates only, skipping the per-packet hash + probe.
      .max_flows = mode_ == Mode::kDeep ? std::size_t{256} : std::size_t{0}}};
  telemetry::TimeSeriesRecorder recorder_;
  FlowWorkload workload_;
  bool finished_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "F1c (§2.3)", "network telemetry on remote state",
      "counter capacity grows ~1000x (100 GB DRAM vs <100 MB SRAM); "
      "per-packet counting with 100% accuracy and zero CPU");
  bench::BenchResults results(argc, argv);
  const std::string ts_path =
      bench::flag_value(argc, argv, "--timeseries");

  // (1) Capacity arithmetic, the paper's own 1000x comparison.
  stats::TablePrinter capacity({"state location", "memory", "8 B counters"});
  capacity.add_row({"switch SRAM (upper bound)", "100 MB", "12.5 M"});
  capacity.add_row({"one server's reserved DRAM", "100 GB", "12,500 M"});
  capacity.print("F1c-a: counter capacity");

  // (2)-(4) The scenario, bare: exact counting + sketch, no telemetry.
  // (5) Identical scenario under the full observability layer. Timing at
  // the sub-second scale these runs take is noisy on a shared machine
  // (hypervisor steal contaminates even process CPU time), so each rep
  // steps all three modes' sims round-robin, one timed 1 ms slice each:
  // slice i of every mode runs back-to-back in wall time, putting the
  // same interference on each. Each rep yields one paired cost ratio per
  // mode (see (5) below) and one CPU total per mode; the median rep's
  // total gives the events/s rows. A sanitizer build times its
  // instrumentation, so one rep serves the simulated verdicts there.
  constexpr int kReps = bench::kSanitized ? 1 : 15;
  ScenarioResult bare, obs, deep;
  // One entry per rep: CPU seconds per mode, and cost ratios vs bare.
  std::vector<double> off_s, on_s, deep_s, on_ratios, deep_ratios;
  auto total = [](const std::vector<double>& slices) {
    return std::accumulate(slices.begin(), slices.end(), 0.0);
  };
  for (int rep = 0; rep < kReps; ++rep) {
    Scenario bare_run(Mode::kBare);
    Scenario obs_run(Mode::kObs);
    Scenario deep_run(Mode::kDeep);
    bool active = true;
    while (active) {
      active = bare_run.step();
      active = obs_run.step() || active;
      active = deep_run.step() || active;
    }
    on_ratios.push_back(median_ratio(obs_run.slices(), bare_run.slices()));
    deep_ratios.push_back(median_ratio(deep_run.slices(), bare_run.slices()));
    off_s.push_back(total(bare_run.slices()));
    on_s.push_back(total(obs_run.slices()));
    deep_s.push_back(total(deep_run.slices()));
    if (rep == kReps - 1) {
      bare = bare_run.finish();
      obs = obs_run.finish();
      if (!ts_path.empty()) {
        results.write_timeseries(ts_path, obs_run.timeseries_json());
      }
      deep = deep_run.finish();
    }
  }
  bare.cpu_seconds = median(off_s);
  obs.cpu_seconds = median(on_s);
  deep.cpu_seconds = median(deep_s);

  stats::TablePrinter hh({"flow rank", "true count", "sketch estimate",
                          "rel. error"});
  for (std::size_t i = 0; i < bare.top10.size(); ++i) {
    const auto [truth, est] = bare.top10[i];
    hh.add_row({std::to_string(i + 1), stats::TablePrinter::num(truth, 0),
                stats::TablePrinter::num(est, 0),
                stats::TablePrinter::num(100 * std::abs(est - truth) / truth) +
                    "%"});
  }

  stats::TablePrinter table({"metric", "value"});
  table.add_row({"packets observed", std::to_string(kPackets)});
  table.add_row({"exact counters: sum over region",
                 std::to_string(bare.total_counted)});
  table.add_row({"flows audited exact (incl. aliased)",
                 std::to_string(bare.exact_flows) + "/" +
                     std::to_string(bare.audited_flows)});
  table.add_row({"F&A wire bandwidth (both primitives)",
                 stats::TablePrinter::num(sim::to_gbps(sim::achieved_rate(
                     bare.fa_wire_bytes, bare.traffic_end))) + " Gb/s"});
  table.add_row({"memory-server CPU packets",
                 std::to_string(bare.cpu_packets)});
  table.print("F1c-b: exact per-flow counting over remote DRAM");
  hh.print("F1c-c: Count Sketch heavy hitters (remote sketch)");

  // (5) Observability overhead: the same simulation dormant vs always-on
  // vs deep-traced. The always-on plane is what the host-timed verdict
  // holds to < 3%; per-op span tracing is reported alongside as the
  // documented price of a debugging session.
  //
  // The overhead estimator is deliberately two-layer robust. Within a
  // rep it divides each mode's slice i by the bare slice i that ran just
  // before it, so the pair shares its interference, and takes the
  // MEDIAN over slices: a contaminated slice moves one rank, not the
  // estimate. Across reps it takes the MEDIAN again, so one rep on a
  // noisy host moves one rank too. (A ratio of per-mode minima would
  // break the pairing: each minimum comes from whichever rep was
  // luckiest for that mode.)
  const double off_rate = bare.events_per_sec();
  const double on_rate = obs.events_per_sec();
  const double deep_rate = deep.events_per_sec();
  // events/s overhead = 1 - (events_ratio / cpu_ratio): the active modes
  // execute slightly MORE sim events (sampler ticks), which the rate
  // comparison credits back.
  auto overhead_vs_bare = [&](const ScenarioResult& mode,
                              const std::vector<double>& rep_ratios) {
    const double cpu_ratio = median(rep_ratios);
    const double ev_ratio = bare.sim_events > 0
                                ? static_cast<double>(mode.sim_events) /
                                      static_cast<double>(bare.sim_events)
                                : 1.0;
    return 100.0 * (1.0 - ev_ratio / cpu_ratio);
  };
  const double overhead_pct = overhead_vs_bare(obs, on_ratios);
  const double deep_overhead = overhead_vs_bare(deep, deep_ratios);

  stats::TablePrinter cost({"metric", "dormant", "always-on", "deep trace"});
  cost.add_row({"sim events", std::to_string(bare.sim_events),
                std::to_string(obs.sim_events),
                std::to_string(deep.sim_events)});
  cost.add_row({"events/s", stats::TablePrinter::num(off_rate, 0),
                stats::TablePrinter::num(on_rate, 0),
                stats::TablePrinter::num(deep_rate, 0)});
  cost.add_row({"INT-tagged packets", "0", std::to_string(obs.int_tagged),
                std::to_string(deep.int_tagged)});
  cost.add_row({"INT hop records", "0", std::to_string(obs.int_hop_records),
                std::to_string(deep.int_hop_records)});
  cost.add_row({"INT wire overhead (accounted)", "0",
                std::to_string(obs.int_wire_bytes) + " B",
                std::to_string(deep.int_wire_bytes) + " B"});
  cost.add_row({"path latency p99", "-",
                stats::TablePrinter::num(obs.path_p99_us) + " us",
                stats::TablePrinter::num(deep.path_p99_us) + " us"});
  cost.add_row({"time-series", "-",
                std::to_string(obs.ts_series) + " series x " +
                    std::to_string(obs.ts_ticks) + " ticks",
                "same"});
  cost.add_row({"per-flow table entries", "0", "0 (aggregate-only)",
                std::to_string(deep.flow_entries)});
  cost.add_row({"op spans closed", "0", "0",
                std::to_string(deep.trace_spans)});
  cost.add_row({"flight-recorder events", "0",
                std::to_string(obs.flight_events),
                std::to_string(deep.flight_events)});
  cost.add_row({"events/s overhead", "-",
                stats::TablePrinter::num(overhead_pct) + "%",
                stats::TablePrinter::num(deep_overhead) + "%"});
  cost.print("F1c-d: observability cost (always-on plane vs deep tracing)");

  results.add("int_off/sim_events_per_sec", off_rate, "events/s");
  results.add("int_on/sim_events_per_sec", on_rate, "events/s");
  results.add("int_overhead_pct", overhead_pct, "pct");
  results.add("int_on/tagged_packets", static_cast<double>(obs.int_tagged),
              "packets");
  results.add("int_on/hop_records", static_cast<double>(obs.int_hop_records),
              "records");
  results.add("int_on/wire_bytes", static_cast<double>(obs.int_wire_bytes),
              "bytes");

  results.verdict(bare.total_counted == kPackets,
                  "exact store counted every packet exactly once (100%)");
  results.verdict(bare.exact_flows == bare.audited_flows,
                  "every audited flow counter is complete");
  results.verdict(bare.worst_rel_err < 0.15,
                  "sketch top-10 estimates within 15% of ground truth");
  results.verdict(bare.cpu_packets == 0, "zero server CPU");
  results.verdict(obs.total_counted == bare.total_counted &&
                      obs.sim_events >= bare.sim_events,
                  "observability layer changed no scenario outcome");
  // Every tenant packet crosses three INT hops (host 0's link, the ToR,
  // host 1's link), each adding one record to a 1 B stack header.
  constexpr std::uint64_t kHops = 3;
  results.verdict(
      obs.int_tagged == kPackets && obs.int_hop_records == kHops * kPackets &&
          obs.int_wire_bytes ==
              static_cast<std::int64_t>(
                  kPackets * (1 + kHops * net::IntHopRecord::kWireBytes)),
      "INT tags all 60000 packets with 3 hop records each (180000 "
      "records, 2940000 B of stack)");
  char claim[120];
  results.verdict(deep.trace_spans > 0 &&
                      deep.flight_events >= deep.trace_spans,
                  "deep mode mirrors every op span into the flight ring");
  std::snprintf(claim, sizeof(claim),
                "always-on observability costs %.2f%% events/s (< 3%%)",
                overhead_pct);
  results.host_verdict(overhead_pct < 3.0, claim);
  return results.finish();
}
