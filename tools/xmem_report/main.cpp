// xmem-report: render telemetry exports into one markdown report.
//
// Input files are the JSON artifacts the telemetry layer writes —
// time-series exports ("xmem-timeseries-v1", from
// TimeSeriesRecorder::to_json) and flight-recorder postmortems
// ("xmem-postmortem-v1", from FlightRecorder::write_postmortem). Each
// file is sniffed by its "schema" field, so the CLI takes a bare list:
//
//   xmem_report [--out report.md] [--width N] [--title STR] file.json...
//
// The output is markdown meant to be pasted into a PR description or a
// CI job summary: one table per export with min/mean/max/last per
// series plus a U+2581..U+2588 sparkline, and the event ring + final
// metric snapshot for postmortems. Rendering is a pure function of the
// inputs — identical files yield byte-identical reports — so goldens
// in CI stay diffable.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/json.hpp"

namespace json = xmem::telemetry::json;

namespace {

constexpr int kDefaultSparkWidth = 40;

// Eight block heights; index = quantized level. Narrow literals carry
// the UTF-8 bytes directly (the repo builds with a UTF-8 execution
// charset everywhere).
const char* const kBars[8] = {"▁", "▂", "▃", "▄",
                              "▅", "▆", "▇", "█"};

/// Compact numeric formatting for table cells: integers stay integral,
/// everything else gets four significant digits.
std::string fmt(double v) {
  char buf[64];
  if (v == static_cast<std::int64_t>(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  }
  return buf;
}

/// Downsample `values` to at most `width` buckets (bucket mean), then
/// quantize each bucket against the series' own min..max range. A flat
/// series renders as a baseline of U+2581 — still visibly "present".
std::string sparkline(const std::vector<double>& values, int width) {
  if (values.empty()) return "";
  const std::size_t n = values.size();
  const std::size_t w = std::min<std::size_t>(static_cast<std::size_t>(width), n);
  std::vector<double> buckets(w, 0.0);
  for (std::size_t b = 0; b < w; ++b) {
    const std::size_t lo = b * n / w;
    const std::size_t hi = std::max(lo + 1, (b + 1) * n / w);
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += values[i];
    buckets[b] = sum / static_cast<double>(hi - lo);
  }
  const auto [mn_it, mx_it] = std::minmax_element(buckets.begin(), buckets.end());
  const double mn = *mn_it;
  const double span = *mx_it - mn;
  std::string out;
  for (const double v : buckets) {
    int level = 0;
    if (span > 0.0) {
      level = static_cast<int>((v - mn) / span * 7.0 + 0.5);
      level = std::clamp(level, 0, 7);
    }
    out += kBars[level];
  }
  return out;
}

/// Markdown table cells can't contain bare pipes.
std::string md_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '|') out += "\\|";
    else out += c;
  }
  return out;
}

void render_timeseries(const json::Value& doc, const std::string& path,
                       int width, std::string& out) {
  out += "## Time series — `" + path + "`\n\n";
  out += "period " + fmt(doc.at("period_us").number()) + " µs · " +
         fmt(doc.at("ticks").number()) + " ticks · ring capacity " +
         fmt(doc.at("capacity").number()) + "\n\n";
  out += "| series | unit | min | mean | max | last | dropped | trend |\n";
  out += "|---|---|--:|--:|--:|--:|--:|---|\n";
  for (const json::Value& s : doc.at("series").array()) {
    std::vector<double> values;
    for (const json::Value& p : s.at("points").array()) {
      values.push_back(p.array().at(1).number());
    }
    std::string mn = "—", mean = "—", mx = "—", last = "—";
    if (!values.empty()) {
      const auto [mn_it, mx_it] =
          std::minmax_element(values.begin(), values.end());
      double sum = 0.0;
      for (const double v : values) sum += v;
      mn = fmt(*mn_it);
      mx = fmt(*mx_it);
      mean = fmt(sum / static_cast<double>(values.size()));
      last = fmt(values.back());
    }
    out += "| `" + md_escape(s.at("name").string()) + "` | " +
           md_escape(s.at("unit").string()) + " | " + mn + " | " + mean +
           " | " + mx + " | " + last + " | " +
           fmt(s.at("dropped").number()) + " | " + sparkline(values, width) +
           " |\n";
  }
  out += "\n";
}

void render_postmortem(const json::Value& doc, const std::string& path,
                       std::string& out) {
  out += "## Flight recorder — `" + path + "`\n\n";
  out += "reason: **" + md_escape(doc.at("reason").string()) + "** · dumped at " +
         fmt(doc.at("dumped_at_us").number()) + " µs · " +
         fmt(doc.at("total_recorded").number()) + " recorded, " +
         fmt(doc.at("overwritten").number()) + " overwritten (ring capacity " +
         fmt(doc.at("capacity").number()) + ")\n\n";
  out += "| t (µs) | kind | subject | code | a | b | label |\n";
  out += "|--:|---|--:|--:|--:|--:|---|\n";
  for (const json::Value& e : doc.at("events").array()) {
    out += "| " + fmt(e.at("t_us").number()) + " | " +
           md_escape(e.at("kind").string()) + " | " +
           fmt(e.at("subject").number()) + " | " + fmt(e.at("code").number()) +
           " | " + fmt(e.at("a").number()) + " | " + fmt(e.at("b").number()) +
           " | " + md_escape(e.at("label").string()) + " |\n";
  }
  out += "\n";
  if (doc.contains("metrics")) {
    out += "Final metric snapshot:\n\n";
    out += "| metric | kind | value | unit |\n";
    out += "|---|---|--:|---|\n";
    for (const json::Value& m : doc.at("metrics").array()) {
      out += "| `" + md_escape(m.at("name").string()) + "` | " +
             md_escape(m.at("kind").string()) + " | " +
             fmt(m.at("value").number()) + " | " +
             (m.contains("unit") ? md_escape(m.at("unit").string()) : "") +
             " |\n";
    }
    out += "\n";
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out FILE] [--width N] [--title STR] "
               "<export.json>...\n"
               "Inputs are sniffed by their \"schema\" field:\n"
               "  xmem-timeseries-v1   TimeSeriesRecorder::to_json\n"
               "  xmem-postmortem-v1   FlightRecorder::write_postmortem\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string title = "xmem telemetry report";
  int width = kDefaultSparkWidth;
  std::vector<std::string> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--width" && i + 1 < argc) {
      width = std::atoi(argv[++i]);
      if (width < 1 || width > 400) {
        std::fprintf(stderr, "xmem-report: --width out of range\n");
        return 2;
      }
    } else if (arg == "--title" && i + 1 < argc) {
      title = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "xmem-report: unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage(argv[0]);

  std::string report = "# " + title + "\n\n";
  for (const std::string& path : inputs) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "xmem-report: cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    json::Value doc;
    try {
      doc = json::parse(buf.str());
    } catch (const json::ParseError& e) {
      std::fprintf(stderr, "xmem-report: %s: %s\n", path.c_str(), e.what());
      return 1;
    }
    if (!doc.is_object() || !doc.contains("schema") ||
        !doc.at("schema").is_string()) {
      std::fprintf(stderr, "xmem-report: %s: no schema field\n", path.c_str());
      return 1;
    }
    const std::string& schema = doc.at("schema").string();
    try {
      if (schema == "xmem-timeseries-v1") {
        render_timeseries(doc, path, width, report);
      } else if (schema == "xmem-postmortem-v1") {
        render_postmortem(doc, path, report);
      } else {
        std::fprintf(stderr, "xmem-report: %s: unknown schema '%s'\n",
                     path.c_str(), schema.c_str());
        return 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "xmem-report: %s: malformed export: %s\n",
                   path.c_str(), e.what());
      return 1;
    }
  }

  if (out_path.empty()) {
    std::fwrite(report.data(), 1, report.size(), stdout);
    return 0;
  }
  if (!xmem::telemetry::write_file(out_path, report)) {
    std::fprintf(stderr, "xmem-report: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
