// Metric catalogue, per-workload reports, JSON output and the
// --compare verdicts of xmem_bench.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "stats.hpp"
#include "telemetry/json.hpp"
#include "workloads.hpp"

namespace xmem::xbench {

/// An end-to-end metric and the bound by which it may worsen (a share of
/// the parent's median) before a change counts as a regression.
struct EndToEndMetric {
  const char* name;
  const char* unit;
  bool higher_is_better;
  double bound;
  /// Host-measured (noisy) or simulated (exact for a given seed).
  bool host;
  /// Absolute change (in `unit`) below which no regression is called,
  /// for metrics small enough that the bound is below timer noise.
  double floor = 0;
};

/// The host-measured bounds match BENCHMARK.json. run_s gets 25%, not
/// 10%: on the shared recording host the median of one run moves by up
/// to ~11% between runs. peak_rss_mb gets 15%, not 5%: incast_cc's 12 MiB
/// moves by about 0.5 MiB between repetitions (see BENCHMARK.md).
inline constexpr EndToEndMetric kEndToEnd[] = {
    {"run_s", "s", false, 0.25, true},
    {"setup_s", "s", false, 0.25, true, 0.002},
    {"peak_rss_mb", "MiB", false, 0.15, true},
    {"goodput_gbps", "Gb/s", true, 0.01, false},
    {"pkt_p50_us", "us", false, 0.01, false},
    {"pkt_p99_us", "us", false, 0.01, false},
    {"failed_ratio", "ratio", false, 0.0, false},
};

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Per-layer metrics, named <module>.<metric> after the directories under
/// src/. Counts are exact and come from every repetition; host times come
/// only from the traced run.
inline constexpr LayerMetric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.ns_per_event", "ns"},
    {"sim.share", "ratio"},
    {"net.parse_ns", "ns"},
    {"net.share", "ratio"},
    {"roce.frames", "count"},
    {"roce.kib", "KiB"},
    {"roce.parse_ns_per_kib", "ns/KiB"},
    {"roce.build_ns_per_kib", "ns/KiB"},
    {"roce.share", "ratio"},
    {"rnic.requests", "count"},
    {"rnic.dma_kib", "KiB"},
    {"rnic.self_ns", "ns"},
    {"rnic.share", "ratio"},
    {"rnic.registered_mib", "MiB"},
    {"rnic.overflow_drops", "count"},
    {"rnic.naks", "count"},
    {"rnic.cnps", "count"},
    {"switchsim.received", "count"},
    {"switchsim.consumed", "count"},
    {"switchsim.buffer_drops", "count"},
    {"switchsim.pfc_xoff", "count"},
    {"switchsim.ecn_marked", "count"},
    {"switchsim.tm_peak_kib", "KiB"},
    {"topo.frames", "count"},
    {"topo.fault_drops", "count"},
    {"core.ops_posted", "count"},
    {"core.retransmits", "count"},
    {"core.useful_ratio", "ratio"},
    {"core.accumulated", "count"},
    {"core.ring_peak", "count"},
    {"core.op_p50_us", "us"},
    {"core.op_p99_us", "us"},
    {"core.paced_deferrals", "count"},
    {"core.cache_hit_ratio", "ratio"},
    {"core.cache_lookup_ns", "ns"},
    {"core.cache_share", "ratio"},
    {"host.sink_ns", "ns"},
    {"host.send_ns", "ns"},
    {"host.frames_sent", "count"},
    {"host.share", "ratio"},
    {"control.testbed_s", "s"},
    {"control.channels_s", "s"},
    {"control.primitive_s", "s"},
    {"control.populate_s", "s"},
    {"telemetry.samples", "count"},
    {"telemetry.int_records", "count"},
    {"telemetry.export_s", "s"},
    {"faults.violations", "count"},
    {"trace.overhead", "ratio"},
    {"other.share", "ratio"},
};

/// Everything measured for one workload in one invocation.
struct WorkloadReport {
  WorkloadId id = WorkloadId::kFaCounter;
  std::uint64_t seed = 1;
  std::vector<RepResult> reps;     // timed repetitions
  std::vector<double> peak_rss_mb;  // per repetition
  std::optional<RepResult> traced;
  std::vector<Check> checks;  // driver-level checks (digests, child status)
  std::map<std::string, double> per_layer;

  /// Values of one end-to-end metric across the timed repetitions.
  [[nodiscard]] std::vector<double> samples(const std::string& name) const {
    if (name == "peak_rss_mb") return peak_rss_mb;
    std::vector<double> v;
    for (const RepResult& r : reps) {
      if (auto it = r.measured.find(name); it != r.measured.end()) {
        v.push_back(it->second);
      } else if (auto jt = r.exact.find(name); jt != r.exact.end()) {
        v.push_back(jt->second);
      }
    }
    return v;
  }
  /// The reported value of an end-to-end metric: the median over the
  /// repetitions, except for run_s. Host noise here comes in bursts of
  /// 0.1-1 s that slow one slice of a repetition and not the same slice of
  /// the next, so run_s sums, over the 1 ms run_until slices (the same
  /// simulated work in every repetition), the fastest repetition's time.
  [[nodiscard]] double value(const std::string& name) const {
    if (name != "run_s" || reps.empty()) return summarize(samples(name)).median;
    std::size_t slices = reps.front().slice_s.size();
    for (const RepResult& r : reps) slices = std::min(slices, r.slice_s.size());
    double total = 0;
    for (std::size_t k = 0; k < slices; ++k) {
      double best = reps.front().slice_s[k];
      for (const RepResult& r : reps) best = std::min(best, r.slice_s[k]);
      total += best;
    }
    return total;
  }
  [[nodiscard]] bool correct() const {
    for (const Check& c : checks) {
      if (!c.ok) return false;
    }
    return !reps.empty();
  }
  /// Sum over every run of this invocation (timed and traced).
  [[nodiscard]] double total(const std::string& name) const {
    double t = 0;
    for (const RepResult& r : reps) t += r.exact.count(name) ? r.exact.at(name) : 0;
    if (traced && traced->exact.count(name)) t += traced->exact.at(name);
    return t;
  }
  [[nodiscard]] std::uint64_t digest() const {
    return reps.empty() ? 0 : reps.front().digest();
  }
};

inline std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

inline std::string to_json(const std::vector<WorkloadReport>& reports) {
  telemetry::json::JsonWriter w;
  w.begin_object();
  w.kv("benchmark", "xmem_bench");
  w.key("workloads");
  w.begin_object();
  for (const WorkloadReport& rep : reports) {
    w.key(workload_name(rep.id));
    w.begin_object();
    w.kv("seed", rep.seed);
    w.kv("reps", static_cast<std::int64_t>(rep.reps.size()));
    w.kv("correct", rep.correct());
    w.kv("attempted", rep.total("attempted"));
    w.kv("failed", rep.total("failed"));
    w.kv("sim_digest", hex64(rep.digest()));
    w.key("end_to_end");
    w.begin_object();
    for (const EndToEndMetric& m : kEndToEnd) {
      const std::vector<double> v = rep.samples(m.name);
      const Summary s = summarize(v);
      w.key(m.name);
      w.begin_object();
      w.kv("unit", m.unit);
      w.kv("better", m.higher_is_better ? "higher" : "lower");
      w.kv("bound", m.bound);
      w.kv("kind", m.host ? "host" : "simulated");
      w.kv("value", rep.value(m.name));
      w.kv("n", static_cast<std::int64_t>(s.n));
      w.kv("median", s.median);
      w.kv("q1", s.q1);
      w.kv("q3", s.q3);
      w.kv("min", s.min);
      w.kv("max", s.max);
      w.key("samples");
      w.begin_array();
      for (const double x : v) w.value(x);
      w.end_array();
      w.end_object();
    }
    w.end_object();
    if (!rep.reps.empty()) {
      w.kv("pkt_samples", rep.reps.front().exact.at("pkt_samples"));
    }
    w.key("per_layer");
    w.begin_object();
    for (const LayerMetric& m : kPerLayer) {
      auto it = rep.per_layer.find(m.name);
      if (it == rep.per_layer.end()) continue;
      w.key(m.name);
      w.begin_object();
      w.kv("unit", m.unit);
      w.kv("value", it->second);
      w.end_object();
    }
    w.end_object();
    w.key("checks");
    w.begin_array();
    for (const Check& c : rep.checks) {
      w.begin_object();
      w.kv("name", std::string_view(c.name));
      w.kv("ok", c.ok);
      w.kv("detail", std::string_view(c.detail));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.take();
}

// ---------------------------------------------------------------------
// --compare: parent runs vs change runs, per workload x end-to-end metric
// ---------------------------------------------------------------------

enum class Verdict { kImproved, kUnchanged, kRegressed, kUnresolved };

inline const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kImproved: return "improved";
    case Verdict::kUnchanged: return "unchanged";
    case Verdict::kRegressed: return "regressed";
    case Verdict::kUnresolved: return "unresolved";
  }
  return "?";
}

/// One run's median per file, parent[i] paired with change[i].
///  - regressed:  the change's median is worse than the parent's by more
///                than the bound (and the floor);
///  - unresolved: otherwise, when the parent's own min-max spread exceeds
///                that tolerance, unless every change run beats every
///                parent run;
///  - improved:   the change wins >= 9/10 of the pairs (ties count for
///                neither) and its median is better by more than the
///                parent's interquartile range;
///  - unchanged:  everything else.
inline Verdict judge(const EndToEndMetric& m, const std::vector<double>& parent,
                     const std::vector<double>& change) {
  const Summary p = summarize(parent);
  const Summary c = summarize(change);
  const double sign = m.higher_is_better ? -1.0 : 1.0;  // > 0 = worse
  const double tolerance = std::max(m.bound * std::fabs(p.median), m.floor);
  const double worse_by = sign * (c.median - p.median);
  if (worse_by > tolerance) return Verdict::kRegressed;

  const bool all_better = m.higher_is_better ? c.min > p.max : c.max < p.min;
  if (p.max - p.min > tolerance && !all_better) return Verdict::kUnresolved;

  const std::size_t pairs = std::min(parent.size(), change.size());
  std::size_t wins = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    if (sign * (change[i] - parent[i]) < 0) ++wins;
  }
  const bool claim =
      pairs > 0 &&
      static_cast<double>(wins) >= 0.9 * static_cast<double>(pairs) &&
      -worse_by > p.q3 - p.q1;
  return claim ? Verdict::kImproved : Verdict::kUnchanged;
}

}  // namespace xmem::xbench
