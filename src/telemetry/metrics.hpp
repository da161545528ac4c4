// MetricsRegistry: one hierarchical namespace for every number the
// simulator can report.
//
// Components keep their existing Stats structs — the registry does not
// own the values, it owns *names*. A registration binds a hierarchical
// name ("switch0/rdma/qp17/reads_sent", "tm/port2/queue_depth_bytes") to
// a read callback, so snapshot() observes the live value with zero cost
// on the component's hot path. Three metric kinds:
//
//   counter   monotonically increasing integer (reads_sent, naks, drops)
//   gauge     instantaneous level (queue depth, ring depth, outstanding)
//   histogram sample distribution, owned by the registry (op latencies);
//             snapshot() expands it into count/min/mean/p50/p99/max
//
// Registrations are stored in a std::map so enumeration order — and
// therefore every exporter's output — is lexicographic and deterministic:
// two identical seeded runs produce byte-identical snapshots.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "stats/histogram.hpp"

namespace xmem::telemetry {

namespace json {
class JsonWriter;
}  // namespace json

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view to_string(MetricKind kind);

/// One observed value in a snapshot. Counters carry `integer`; gauges and
/// histogram summary rows carry `real`.
struct Sample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::string unit;
  bool integral = true;
  std::int64_t integer = 0;
  double real = 0.0;

  [[nodiscard]] double as_double() const {
    return integral ? static_cast<double>(integer) : real;
  }
};

class MetricsRegistry {
 public:
  using CounterFn = std::function<std::int64_t()>;
  using GaugeFn = std::function<double()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Bind `name` to a counter read callback. Throws std::invalid_argument
  /// if the name is already taken (collisions are always programming
  /// errors: two components claiming the same prefix).
  void register_counter(std::string name, CounterFn fn, std::string unit = "");

  /// Bind `name` to a component's Stats field, read live through the
  /// pointer (the field must outlive the registration).
  void register_counter(std::string name, const std::uint64_t* value,
                        std::string unit = "");

  /// Bind `name` to a gauge read callback.
  void register_gauge(std::string name, GaugeFn fn, std::string unit = "");

  /// Create (or return the existing) registry-owned histogram under
  /// `name`. Unlike callback metrics, repeated calls with the same name
  /// return the same histogram — per-QP latency recorders share it.
  stats::Histogram& histogram(const std::string& name, std::string unit = "");

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Evaluate one counter or gauge by name (histograms are not scalar).
  /// Throws std::out_of_range / std::invalid_argument on bad names.
  [[nodiscard]] double read(const std::string& name) const;

  /// Bound reader for one counter/gauge: the returned callback reads the
  /// live value with no name lookup, so per-tick samplers pay a plain
  /// indirect call instead of a string-keyed map walk. Valid for the
  /// registry's lifetime. Same exceptions as read().
  [[nodiscard]] GaugeFn reader(const std::string& name) const;

  /// Observe every metric, in lexicographic name order. Histograms expand
  /// into <name>/count, /min, /mean, /p50, /p99, /max rows (empty
  /// histograms report only count=0).
  [[nodiscard]] std::vector<Sample> snapshot() const;

  /// JSON export over snapshot(), {"metrics":[<rows>]}; deterministic
  /// byte-for-byte given equal metric values.
  [[nodiscard]] std::string to_json() const;

  /// Append snapshot() to `w` as the array of {name, kind, unit, value}
  /// rows that to_json() and postmortem bundles share (unit omitted when
  /// empty).
  void write_rows(json::JsonWriter& w) const;

 private:
  struct Metric {
    MetricKind kind = MetricKind::kCounter;
    std::string unit;
    CounterFn counter;
    GaugeFn gauge;
    std::unique_ptr<stats::Histogram> histogram;
  };

  void insert(std::string name, Metric metric);

  std::map<std::string, Metric> metrics_;
};

}  // namespace xmem::telemetry
