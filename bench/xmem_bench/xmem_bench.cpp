// xmem_bench — the repository's benchmark (see BENCHMARK.md).
//
//   xmem_bench [--workload W]... [--reps N | --seconds S] [--seed S]
//              [--json out.json] [--trace DIR] [--smoke]
//   xmem_bench --compare PARENT.json... -- CHANGE.json...
//
// One driver process runs each repetition in a forked child (fork +
// wait4), one child at a time, so peak RSS is per repetition and the
// single-threaded simulation never shares the host with a sibling. Every
// repetition reports the end-to-end metrics with tracing off; with
// --trace, one more child runs the workload traced and times each layer.
// Exit status: 0 when every correctness check passed, 1 when one failed
// (or --compare found a regression), 2 on a usage error.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "clock.hpp"
#include "replay.hpp"
#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace xmem;
namespace xb = xmem::xbench;
namespace json = xmem::telemetry::json;

namespace {

constexpr int kMinReps = 3;
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 100;
constexpr double kSetupBudgetS = 0.02;
constexpr double kSmokeScale = 1.0 / 50.0;

struct Options {
  std::vector<xb::WorkloadId> workloads;
  int reps = 5;
  double seconds = 0;  // > 0: a host-time budget per workload replaces reps
  std::uint64_t seed = 1;
  std::string json_path;
  std::string trace_dir;
  bool smoke = false;
  bool compare = false;
  std::vector<std::string> parent_files;
  std::vector<std::string> change_files;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: xmem_bench [--workload W]... [--reps N | --seconds S] "
      "[--seed S]\n"
      "                  [--json out.json] [--trace DIR] [--smoke]\n"
      "       xmem_bench --compare PARENT.json... -- CHANGE.json...\n"
      "workloads: fa_counter lookup_zipf incast_absorb incast_cc\n");
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (a == "--compare") {
      o.compare = true;
      bool change = false;
      for (++i; i < argc; ++i) {
        if (std::string(argv[i]) == "--") {
          change = true;
        } else {
          (change ? o.change_files : o.parent_files).emplace_back(argv[i]);
        }
      }
      if (o.parent_files.empty() || o.change_files.empty()) return std::nullopt;
      return o;
    }
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    const auto v = value();
    if (!v) return std::nullopt;
    if (a == "--workload") {
      const auto id = xb::parse_workload(*v);
      if (!id) return std::nullopt;
      o.workloads.push_back(*id);
    } else if (a == "--reps") {
      o.reps = std::atoi(v->c_str());
      if (o.reps < 1) return std::nullopt;
    } else if (a == "--seconds") {
      o.seconds = std::atof(v->c_str());
      if (o.seconds <= 0) return std::nullopt;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (a == "--json") {
      o.json_path = *v;
    } else if (a == "--trace") {
      o.trace_dir = *v;
    } else {
      return std::nullopt;
    }
  }
  if (o.workloads.empty()) {
    o.workloads.assign(xb::kAllWorkloads.begin(), xb::kAllWorkloads.end());
  }
  return o;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------
// Child processes: one repetition each, results back over a pipe as
// "e|m <name> <value>", "s <slice seconds>..." and
// "c <0|1> <name>\t<detail>" lines.
// ---------------------------------------------------------------------

std::string serialize(const xb::RepResult& r) {
  std::string out;
  char line[256];
  for (const auto& [tag, values] :
       {std::pair{'e', &r.exact}, std::pair{'m', &r.measured}}) {
    for (const auto& [name, value] : *values) {
      std::snprintf(line, sizeof(line), "%c %s %.17g\n", tag, name.c_str(),
                    value);
      out += line;
    }
  }
  out += "s";
  for (const double v : r.slice_s) {
    std::snprintf(line, sizeof(line), " %.17g", v);
    out += line;
  }
  out += "\n";
  for (const xb::Check& c : r.checks) {
    std::string detail = c.detail;
    for (char& ch : detail) {
      if (ch == '\n' || ch == '\t') ch = ' ';
    }
    out += std::string("c ") + (c.ok ? "1 " : "0 ") + c.name + "\t" + detail +
           "\n";
  }
  return out;
}

void parse_result(const std::string& text, xb::RepResult& r,
                  std::string& error) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() < 2) continue;
    const char tag = line[0];
    const std::string rest = line.substr(2);
    if (tag == 'e' || tag == 'm') {
      const std::size_t sp = rest.find(' ');
      if (sp == std::string::npos) continue;
      const double v = std::strtod(rest.c_str() + sp + 1, nullptr);
      (tag == 'e' ? r.exact : r.measured)[rest.substr(0, sp)] = v;
    } else if (tag == 'c' && rest.size() >= 2) {
      const std::size_t tab = rest.find('\t');
      r.check(rest.substr(2, tab - 2), rest[0] == '1',
              tab == std::string::npos ? "" : rest.substr(tab + 1));
    } else if (tag == 's') {
      std::istringstream values(rest);
      for (double v = 0; values >> v;) r.slice_s.push_back(v);
    } else if (tag == 'x') {
      error = rest;
    }
  }
}

struct ChildOutcome {
  xb::RepResult result;
  double peak_rss_mb = 0;
  std::string error;  // empty on success
};

ChildOutcome run_child(const std::function<xb::RepResult()>& body) {
  ChildOutcome out;
  int fds[2];
  if (pipe(fds) != 0) {
    out.error = std::string("pipe: ") + std::strerror(errno);
    return out;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    out.error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return out;
  }
  if (pid == 0) {
    close(fds[0]);
    std::string payload;
    try {
      payload = serialize(body());
    } catch (const std::exception& e) {
      payload = std::string("x ") + e.what() + "\n";
    }
    const char* p = payload.data();
    std::size_t left = payload.size();
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    close(fds[1]);
    std::fflush(nullptr);
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out.error = "repetition process died (status " + std::to_string(status) +
                ")";
    return out;
  }
  parse_result(text, out.result, out.error);
  return out;
}

// ---------------------------------------------------------------------
// Repetition bodies (run inside the child)
// ---------------------------------------------------------------------

xb::RepResult timed_rep(xb::WorkloadId id, const xb::Inputs& in) {
  std::vector<double> setups;
  xb::RepResult r;
  {
    const auto w = xb::make_workload(id, in, nullptr);
    xb::Stopwatch clock;
    w->setup();
    setups.push_back(clock.seconds());
    clock.restart();
    w->run();
    const double run_s = clock.seconds();
    r = w->collect();
    r.measured["run_s"] = run_s;
  }
  // Set-up takes well under 1 ms on two workloads, where one timing is
  // mostly noise: once the run is over and its instance gone (so that the
  // spares do not raise the peak RSS), set up spare instances until at
  // least kMinSetups set-ups have been timed and kSetupBudgetS spent (at
  // most kMaxSetups), and report the median.
  double spent = setups.back();
  while (setups.size() < kMaxSetups &&
         (setups.size() < kMinSetups || spent < kSetupBudgetS)) {
    const auto spare = xb::make_workload(id, in, nullptr);
    const xb::Stopwatch clock;
    spare->setup();
    setups.push_back(clock.seconds());
    spent += setups.back();
  }
  r.measured["setup_s"] = xb::summarize(setups).median;
  return r;
}

/// Durations (us) of the simulated op spans in an OpTracer export that
/// completed with a response; fire-and-forget WRITEs close at injection
/// ("posted") and carry no latency.
std::vector<double> op_latencies_us(const std::string& trace) {
  std::vector<double> out;
  const std::string kSpan = "\"ph\":\"X\"";
  const std::string kDur = "\"dur\":";
  const std::string kStatus = "\"status\":\"";
  for (std::size_t at = trace.find(kSpan); at != std::string::npos;
       at = trace.find(kSpan, at + 1)) {
    const std::size_t d = trace.find(kDur, at);
    const std::size_t s = trace.find(kStatus, at);
    if (d == std::string::npos || s == std::string::npos) break;
    const std::size_t s_end = trace.find('"', s + kStatus.size());
    const std::string status =
        trace.substr(s + kStatus.size(), s_end - s - kStatus.size());
    if (status == "posted" || status == "open") continue;
    out.push_back(std::strtod(trace.c_str() + d + kDur.size(), nullptr));
  }
  return out;
}

xb::RepResult traced_rep(xb::WorkloadId id, const xb::Inputs& in,
                         const std::string& dir) {
  xb::HostTracer tracer;
  const auto w = xb::make_workload(id, in, &tracer);
  const std::string name(xb::workload_name(id));
  const std::string base = dir + "/" + name;
  xb::RepResult r;
  auto& m = r.measured;
  std::uint64_t sink = 0;
  xb::RoceCost roce;
  xb::RnicReplay rnic;
  {
    xb::HostTracer::Scope root(&tracer, name);
    {
      xb::HostTracer::Scope span(&tracer, "setup");
      w->setup();
    }
    {
      xb::HostTracer::Scope span(&tracer, "run");
      w->run();
    }
    {
      xb::HostTracer::Scope span(&tracer, "collect");
      r = w->collect();
    }
    std::string ops_json;
    {
      xb::HostTracer::Scope span(&tracer, "telemetry.export");
      ops_json = w->op_tracer()->chrome_trace_json();
      write_file(base + ".ops.json", ops_json);
      for (const auto& [suffix, text] : w->telemetry_exports()) {
        write_file(base + "." + suffix, text);
      }
    }
    stats::Histogram op_us;
    for (const double us : op_latencies_us(ops_json)) op_us.add(us);
    m["core.op_p50_us"] = op_us.empty() ? 0.0 : op_us.percentile(50);
    m["core.op_p99_us"] = op_us.empty() ? 0.0 : op_us.percentile(99);

    xb::HostTracer::Scope span(&tracer, "replay");
    const xb::Summary depth = xb::summarize(w->depth_samples());
    m["sim.depth"] = depth.median;
    {
      xb::HostTracer::Scope s(&tracer, "replay.sim.schedule_fire");
      m["sim.ns_per_event"] = xb::replay_event_queue(
          static_cast<std::size_t>(depth.median), sink);
    }
    {
      xb::HostTracer::Scope s(&tracer, "replay.net.parse_packet");
      m["net.parse_ns"] = xb::replay_net_parse(w->tenant_frames().frames(), sink);
    }
    {
      xb::HostTracer::Scope s(&tracer, "replay.roce.parse_build");
      roce = xb::replay_roce(w->memory_frames(0).frames(), sink);
    }
    {
      xb::HostTracer::Scope s(&tracer, "replay.rnic.handle_frame");
      rnic = xb::replay_rnic(w->memory_frames(0).frames(), w->rnic_setup());
    }
    {
      xb::HostTracer::Scope s(&tracer, "replay.core.lookup_cache");
      m["core.cache_lookup_ns"] =
          xb::replay_cache(w->tenant_frames().frames(), sink);
    }
  }
  r.check("rnic_replay", rnic.ok, rnic.detail);
  // Folded into the output so that no replay loop can be optimized away.
  m["replay.checksum"] = static_cast<double>(sink);

  // Unit cost x in-situ count, over the traced run.
  const auto& e = r.exact;
  m["setup_s"] = tracer.seconds_in("setup");
  m["run_s"] = tracer.seconds_in("run");
  const double run_ns = m["run_s"] * 1e9;
  for (const char* step : {"testbed", "channels", "primitive", "populate"}) {
    m[std::string("control.") + step + "_s"] =
        tracer.seconds_in(std::string("control.") + step);
  }
  m["telemetry.export_s"] = tracer.seconds_in("telemetry.export");
  const xb::LogHistogram& accept = tracer.aggregates().at("host.sink_accept");
  const xb::LogHistogram& send = tracer.aggregates().at("host.send");
  m["host.sink_ns"] = accept.mean();
  m["host.send_ns"] = send.mean();
  m["roce.parse_ns_per_kib"] = roce.parse_ns_per_kib;
  m["roce.build_ns_per_kib"] = roce.build_ns_per_kib;
  m["rnic.self_ns"] = rnic.ns_per_request -
                      roce.parse_ns_per_kib * rnic.request_kib -
                      roce.build_ns_per_kib * rnic.response_kib;
  m["sim.share"] = m["sim.ns_per_event"] * e.at("sim.events") / run_ns;
  m["net.share"] = m["net.parse_ns"] * e.at("switchsim.received") / run_ns;
  m["roce.share"] = (roce.parse_ns_per_kib + roce.build_ns_per_kib) *
                    e.at("roce.kib") / run_ns;
  m["rnic.share"] = m["rnic.self_ns"] * e.at("rnic.requests") / run_ns;
  m["core.cache_share"] = m["core.cache_lookup_ns"] *
                          static_cast<double>(w->cache_lookups()) / run_ns;
  m["host.share"] =
      static_cast<double>(accept.total() + send.total()) / run_ns;
  m["other.share"] = 1.0 - (m["sim.share"] + m["net.share"] + m["roce.share"] +
                            m["rnic.share"] + m["core.cache_share"] +
                            m["host.share"]);
  write_file(base + ".trace.json", tracer.chrome_json("xmem_bench " + name));
  return r;
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// Folds a repetition's checks into the report: one row per check name,
/// failing if it failed in any repetition.
void merge_checks(std::vector<xb::Check>& into,
                  const std::vector<xb::Check>& from) {
  for (const xb::Check& c : from) {
    auto it = std::find_if(into.begin(), into.end(), [&](const xb::Check& x) {
      return x.name == c.name;
    });
    if (it == into.end()) {
      into.push_back(c);
    } else if (it->ok && !c.ok) {
      *it = c;
    }
  }
}

/// Every X span's parent id must name another span of the file.
std::string validate_trace(const std::string& path) {
  const json::Value doc = json::parse(read_file(path));
  std::set<double> ids;
  std::vector<double> parents;
  for (const json::Value& ev : doc.at("traceEvents").array()) {
    if (ev.at("ph").string() != "X") continue;
    const json::Value& args = ev.at("args");
    ids.insert(args.at("id").number());
    if (args.contains("parent")) parents.push_back(args.at("parent").number());
  }
  for (const double p : parents) {
    if (ids.count(p) == 0) return "unresolved parent id in " + path;
  }
  return "";
}

xb::WorkloadReport measure(xb::WorkloadId id, const Options& o, double scale) {
  xb::WorkloadReport rep;
  rep.id = id;
  rep.seed = o.seed;
  const xb::Inputs inputs = xb::make_inputs(id, o.seed, scale);
  const bool traced = !o.trace_dir.empty();
  const xb::Stopwatch budget;
  for (int i = 1;; ++i) {
    ChildOutcome c = run_child([&] { return timed_rep(id, inputs); });
    if (!c.error.empty()) {
      rep.checks.push_back({"repetition_" + std::to_string(i), false, c.error});
      break;
    }
    merge_checks(rep.checks, c.result.checks);
    rep.reps.push_back(std::move(c.result));
    rep.peak_rss_mb.push_back(c.peak_rss_mb);
    if (o.seconds > 0) {
      // Stop before the next repetition (and the traced run, which costs
      // about two repetitions) would overrun the budget.
      const double mean = budget.seconds() / i;
      const double reserve = traced ? 2.0 * mean + 1.0 : 0.0;
      if (i >= kMinReps && budget.seconds() + mean + reserve > o.seconds) break;
    } else if (i >= o.reps) {
      break;
    }
  }
  if (rep.reps.empty()) return rep;

  const std::uint64_t digest = rep.digest();
  bool stable = true;
  for (const xb::RepResult& r : rep.reps) stable = stable && r.digest() == digest;
  rep.checks.push_back({"sim_digest_stable", stable,
                        std::to_string(rep.reps.size()) +
                            " repetitions, sim_digest " + xb::hex64(digest)});
  if (!traced) return rep;

  std::filesystem::create_directories(o.trace_dir);
  ChildOutcome t =
      run_child([&] { return traced_rep(id, inputs, o.trace_dir); });
  if (!t.error.empty()) {
    rep.checks.push_back({"traced_run", false, t.error});
    return rep;
  }
  merge_checks(rep.checks, t.result.checks);
  rep.checks.push_back({"trace_is_passive", t.result.digest() == digest,
                        "traced run sim_digest " +
                            xb::hex64(t.result.digest())});
  const std::string trace_path =
      o.trace_dir + "/" + std::string(xb::workload_name(id)) + ".trace.json";
  std::string trace_error;
  try {
    trace_error = validate_trace(trace_path);
  } catch (const std::exception& e) {
    trace_error = e.what();
  }
  rep.checks.push_back({"trace_json", trace_error.empty(),
                        trace_error.empty() ? trace_path : trace_error});

  const double run_s = rep.value("run_s");
  const double wall_median = xb::summarize(rep.samples("run_s")).median;
  for (const xb::LayerMetric& lm : xb::kPerLayer) {
    const std::string n = lm.name;
    if (auto it = t.result.measured.find(n); it != t.result.measured.end()) {
      rep.per_layer[n] = it->second;
    } else if (auto jt = t.result.exact.find(n); jt != t.result.exact.end()) {
      rep.per_layer[n] = jt->second;
    }
  }
  rep.per_layer["sim.events_per_s"] =
      run_s > 0 ? t.result.exact.at("sim.events") / run_s : 0.0;
  rep.per_layer["trace.overhead"] =
      wall_median > 0 ? t.result.measured.at("run_s") / wall_median - 1.0
                      : 0.0;
  rep.traced = std::move(t.result);
  return rep;
}

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string layer_table(const xb::WorkloadReport& rep) {
  std::string md = "| metric | value | unit |\n|---|---:|---|\n";
  for (const xb::LayerMetric& m : xb::kPerLayer) {
    auto it = rep.per_layer.find(m.name);
    if (it == rep.per_layer.end()) continue;
    md += "| " + std::string(m.name) + " | " + fmt(it->second) + " | " +
          m.unit + " |\n";
  }
  return md;
}

void print_report(const xb::WorkloadReport& rep) {
  std::printf("\n== %s (seed %llu, %zu repetitions) ==\n",
              std::string(xb::workload_name(rep.id)).c_str(),
              static_cast<unsigned long long>(rep.seed), rep.reps.size());
  std::printf("  %-14s %14s  %-29s %3s  %s\n", "end-to-end", "value",
              "[min .. max] of repetitions", "n", "unit");
  for (const xb::EndToEndMetric& m : xb::kEndToEnd) {
    const xb::Summary s = xb::summarize(rep.samples(m.name));
    std::printf("  %-14s %14s  [%-12s .. %12s] %3zu  %s%s\n", m.name,
                fmt(rep.value(m.name)).c_str(), fmt(s.min).c_str(),
                fmt(s.max).c_str(), s.n, m.unit, m.host ? "" : " (simulated)");
  }
  if (!rep.reps.empty()) {
    std::printf("  pkt latency samples: %.0f (p99 needs >= 1000)\n",
                rep.reps.front().exact.at("pkt_samples"));
  }
  std::printf("  sim_digest %s\n", xb::hex64(rep.digest()).c_str());
  for (const xb::Check& c : rep.checks) {
    std::printf("  [%s] %s: %s\n", c.ok ? "ok" : "FAIL", c.name.c_str(),
                c.detail.c_str());
  }
  if (!rep.per_layer.empty()) {
    std::printf("  per-layer (traced run):\n");
    for (const xb::LayerMetric& m : xb::kPerLayer) {
      auto it = rep.per_layer.find(m.name);
      if (it == rep.per_layer.end()) continue;
      std::printf("    %-24s %14s %s\n", m.name, fmt(it->second).c_str(),
                  m.unit);
    }
  }
}

int run_benchmark(const Options& o) {
  std::vector<xb::WorkloadReport> reports;
  bool ok = true;
  for (const xb::WorkloadId id : o.workloads) {
    reports.push_back(measure(id, o, 1.0));
    const xb::WorkloadReport& rep = reports.back();
    print_report(rep);
    ok = ok && rep.correct();
    if (!o.trace_dir.empty() && !rep.per_layer.empty()) {
      write_file(o.trace_dir + "/" + std::string(xb::workload_name(id)) +
                     ".layers.md",
                 "# " + std::string(xb::workload_name(id)) +
                     " per-layer breakdown\n\n" + layer_table(rep));
    }
  }
  if (!o.json_path.empty()) write_file(o.json_path, xb::to_json(reports) + "\n");
  std::printf("\nxmem_bench: %s\n", ok ? "all checks passed" : "CHECK FAILED");
  return ok ? 0 : 1;
}

/// Each workload at 1/50 of its span: two runs must pass every check and
/// agree on sim_digest, and another seed must change the digest.
int run_smoke(const Options& o) {
  bool ok = true;
  for (const xb::WorkloadId id : o.workloads) {
    Options twice = o;
    twice.reps = 2;
    twice.seconds = 0;
    twice.trace_dir.clear();
    const xb::WorkloadReport a = measure(id, twice, kSmokeScale);
    Options other = twice;
    other.seed = o.seed + 1;
    other.reps = 1;
    const xb::WorkloadReport b = measure(id, other, kSmokeScale);
    const bool seed_moves = b.digest() != a.digest();
    const bool pass = a.correct() && b.correct() && seed_moves;
    std::printf("smoke %-14s %s  digest %s (seed %llu: %s)\n",
                std::string(xb::workload_name(id)).c_str(),
                pass ? "ok  " : "FAIL", xb::hex64(a.digest()).c_str(),
                static_cast<unsigned long long>(other.seed),
                xb::hex64(b.digest()).c_str());
    for (const xb::WorkloadReport* r : {&a, &b}) {
      for (const xb::Check& c : r->checks) {
        if (!c.ok) std::printf("  FAIL %s: %s\n", c.name.c_str(), c.detail.c_str());
      }
    }
    ok = ok && pass;
  }
  std::printf("xmem_bench smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

int run_compare(const Options& o) {
  std::vector<json::Value> parent;
  std::vector<json::Value> change;
  for (const auto& f : o.parent_files) parent.push_back(json::parse(read_file(f)));
  for (const auto& f : o.change_files) change.push_back(json::parse(read_file(f)));
  bool regressed = false;
  std::printf("%-14s %-14s %12s %12s  %s\n", "workload", "metric",
              "parent", "change", "verdict");
  for (const auto& [workload, unused] : parent.front().at("workloads").object()) {
    auto values = [&](const std::vector<json::Value>& runs, const char* metric) {
      std::vector<double> v;
      for (const json::Value& run : runs) {
        const json::Value& ws = run.at("workloads");
        if (!ws.contains(workload)) continue;
        v.push_back(ws.at(workload).at("end_to_end").at(metric).at("value").number());
      }
      return v;
    };
    for (const xb::EndToEndMetric& m : xb::kEndToEnd) {
      const std::vector<double> p = values(parent, m.name);
      const std::vector<double> c = values(change, m.name);
      if (p.empty() || c.empty()) continue;
      const xb::Verdict v = xb::judge(m, p, c);
      regressed = regressed || v == xb::Verdict::kRegressed;
      std::printf("%-14s %-14s %12s %12s  %s\n", workload.c_str(), m.name,
                  fmt(xb::summarize(p).median).c_str(),
                  fmt(xb::summarize(c).median).c_str(), xb::verdict_name(v));
    }
  }
  return regressed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> o = parse_args(argc, argv);
  if (!o) {
    usage();
    return 2;
  }
  try {
    if (o->compare) return run_compare(*o);
    if (o->smoke) return run_smoke(*o);
    return run_benchmark(*o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xmem_bench: %s\n", e.what());
    return 1;
  }
}
