// Shared scaffolding for the reproduction benches.
//
// Every bench regenerates one table or figure of the paper and prints:
//   - a banner naming the experiment and the paper's reported values,
//   - the measured rows through stats::TablePrinter,
//   - a [REPRODUCED] or [DIVERGED] verdict line per headline claim.
// main() returns BenchResults::finish(), which fails on any divergence or
// failed output write, so every bench registered under ctest is a claims
// check. These benches also accept `--json <path>`: every metric recorded
// via BenchResults lands in <path> as {"results":[{metric,value,unit},...]},
// so CI and plotting scripts consume numbers without scraping stdout.
// (m1_micro is a Google Benchmark binary: it takes --benchmark_out=<path>
// instead.)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "stats/table_printer.hpp"
#include "telemetry/json.hpp"

namespace xmem::bench {

/// The value after the last `flag` on the command line, or "".
inline std::string flag_value(int argc, char** argv, const std::string& flag) {
  std::string value;
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) value = argv[i + 1];
  }
  return value;
}

/// Worker count for sweep-capable benches: `--jobs N` on the command
/// line wins, then the XMEM_JOBS env knob, then host cores (all via
/// sim::par::resolve_jobs). Returns the request (0 = auto) rather than
/// resolving, so SweepDriver stays the single resolution point.
inline std::size_t parse_jobs(int argc, char** argv) {
  const long v = std::strtol(flag_value(argc, argv, "--jobs").c_str(),
                             nullptr, 10);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

inline void banner(const std::string& experiment_id,
                   const std::string& description,
                   const std::string& paper_claim) {
  std::printf("\n################################################################\n");
  std::printf("# %s — %s\n", experiment_id.c_str(), description.c_str());
  std::printf("# Paper reports: %s\n", paper_claim.c_str());
  std::printf("################################################################\n");
}

inline void note(const std::string& text) {
  std::printf("note: %s\n", text.c_str());
}

/// True in an AddressSanitizer or ThreadSanitizer build (GCC's macros or
/// clang's __has_feature). Host time there measures the sanitizer, not
/// the simulator, so host-timed claims print without gating.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif
#else
inline constexpr bool kSanitized = false;
#endif

/// The bench's verdicts and machine-readable output. Construct from
/// main's argv; if the command line carries `--json <path>`, every add()
/// row is written there when finish() runs.
class BenchResults {
 public:
  BenchResults(int argc, char** argv)
      : path_(flag_value(argc, argv, "--json")) {}
  BenchResults(const BenchResults&) = delete;
  BenchResults& operator=(const BenchResults&) = delete;

  void add(std::string metric, double value, std::string unit) {
    rows_.push_back({std::move(metric), value, std::move(unit)});
  }

  /// Print one claim's verdict line; a divergence fails finish().
  void verdict(bool ok, const std::string& claim) {
    std::printf("[%s] %s\n", ok ? "REPRODUCED" : "DIVERGED", claim.c_str());
    diverged_ = diverged_ || !ok;
  }

  /// A claim about host time: a verdict, except in a sanitizer build,
  /// where it prints the measurement marked unchecked and gates nothing.
  void host_verdict(bool ok, const std::string& claim) {
    if (kSanitized) {
      std::printf("[UNCHECKED] %s (host time under a sanitizer)\n",
                  claim.c_str());
    } else {
      verdict(ok, claim);
    }
  }

  /// Write a --timeseries export. A failed write is named on stderr and
  /// fails finish(), like a failed --json.
  void write_timeseries(const std::string& path, const std::string& json) {
    if (!write(path, json, "time series")) output_failed_ = true;
  }

  /// Record how a sweep actually executed. Lands in a separate "sweep"
  /// key, NOT in "results": the results payload is the deterministic
  /// part of the artifact (byte-identical across --jobs), while the
  /// sweep header is the execution record of the run (DESIGN.md §17).
  void set_sweep_info(std::size_t jobs, std::size_t host_cores) {
    sweep_jobs_ = jobs;
    sweep_host_cores_ = host_cores;
  }

  /// Write --json when asked and return main's exit status: nonzero if
  /// any verdict diverged or any output file could not be written.
  [[nodiscard]] int finish() const {
    const bool written =
        path_.empty() || write(path_, results_json(), "results");
    return diverged_ || output_failed_ || !written ? 1 : 0;
  }

 private:
  struct Row {
    std::string metric;
    double value;
    std::string unit;
  };

  static bool write(const std::string& path, const std::string& content,
                    const char* what) {
    if (!telemetry::write_file(path, content)) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("%s written to %s\n", what, path.c_str());
    return true;
  }

  [[nodiscard]] std::string results_json() const {
    telemetry::json::JsonWriter w;
    w.begin_object();
    w.key("results");
    w.begin_array();
    for (const auto& row : rows_) {
      w.begin_object();
      w.kv("metric", row.metric);
      w.kv("value", row.value);
      w.kv("unit", row.unit);
      w.end_object();
    }
    w.end_array();
    if (sweep_jobs_ > 0) {
      w.key("sweep");
      w.begin_object();
      w.kv("jobs", static_cast<std::int64_t>(sweep_jobs_));
      w.kv("host_cores", static_cast<std::int64_t>(sweep_host_cores_));
      w.end_object();
    }
    w.end_object();
    return w.take() + "\n";
  }

  std::string path_;
  std::vector<Row> rows_;
  std::size_t sweep_jobs_ = 0;
  std::size_t sweep_host_cores_ = 0;
  bool diverged_ = false;
  bool output_failed_ = false;
};

}  // namespace xmem::bench
