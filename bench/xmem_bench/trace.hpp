// Host-time tracing for xmem_bench's traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// simulator's public functions (name, start, end, parent id) and kept in
// memory until the run ends. Per-packet boundaries are far too frequent
// for one span each; they are aggregated as count, total and p99 instead.
// The timed repetitions never construct a tracer, so they pay none of this.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "clock.hpp"
#include "net/packet.hpp"
#include "stats.hpp"
#include "telemetry/json.hpp"
#include "topo/link.hpp"

namespace xmem::xbench {

class HostTracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
  };

  /// RAII span: opens under the innermost open span, closes on scope exit.
  /// A null tracer makes it a no-op.
  class Scope {
   public:
    Scope(HostTracer* tracer, std::string name) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(std::move(name));
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostTracer* tracer_;
    std::size_t index_ = 0;
  };

  HostTracer() : epoch_ns_(host_now_ns()) {}

  /// Per-call cost histogram for a boundary crossed once per packet.
  /// References stay valid for the tracer's lifetime.
  LogHistogram& aggregate(const std::string& name) { return aggregates_[name]; }
  [[nodiscard]] const std::map<std::string, LogHistogram>& aggregates() const {
    return aggregates_;
  }

  /// Summed duration of every span called `name`, in seconds.
  [[nodiscard]] double seconds_in(const std::string& name) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.name == name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// Chrome trace-event JSON (loads in Perfetto): one complete ("X")
  /// event per span, with its id and parent id in args, and one counter
  /// ("C") event per aggregated boundary.
  [[nodiscard]] std::string chrome_json(const std::string& process) const {
    telemetry::json::JsonWriter w;
    w.begin_object();
    w.kv("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.begin_array();
    w.begin_object();
    w.kv("ph", "M");
    w.kv("pid", 1);
    w.kv("name", "process_name");
    w.key("args");
    w.begin_object();
    w.kv("name", std::string_view(process));
    w.end_object();
    w.end_object();
    std::int64_t last_ns = 0;
    for (const Span& s : spans_) {
      w.begin_object();
      w.kv("ph", "X");
      w.kv("pid", 1);
      w.kv("tid", 1);
      w.kv("name", std::string_view(s.name));
      w.kv("cat", "host");
      w.kv("ts", to_us(s.start_ns));
      w.kv("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      w.key("args");
      w.begin_object();
      w.kv("id", static_cast<std::int64_t>(s.id));
      if (s.parent != 0) w.kv("parent", static_cast<std::int64_t>(s.parent));
      w.end_object();
      w.end_object();
      last_ns = std::max(last_ns, s.end_ns);
    }
    for (const auto& [name, hist] : aggregates_) {
      w.begin_object();
      w.kv("ph", "C");
      w.kv("pid", 1);
      w.kv("name", std::string_view(name));
      w.kv("ts", to_us(last_ns));
      w.key("args");
      w.begin_object();
      w.kv("count", hist.count());
      w.kv("total_ns", hist.total());
      w.kv("p99_ns", hist.percentile(99));
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.take();
  }

 private:
  std::size_t open(std::string name) {
    Span s;
    s.name = std::move(name);
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    s.start_ns = host_now_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_ns = host_now_ns();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }
  [[nodiscard]] double to_us(std::int64_t ns) const {
    return static_cast<double>(ns - epoch_ns_) * 1e-3;
  }

  std::int64_t epoch_ns_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::map<std::string, LogHistogram> aggregates_;
};

/// Keeps copy-on-write clones of the first kFrames frames crossing a
/// tapped link (both directions), as replay inputs for per-layer unit
/// costs. Clones share the frames' byte storage, so capture costs a
/// refcount bump per frame.
class FrameCapture {
 public:
  static constexpr std::size_t kFrames = 20'000;

  struct Frame {
    net::Packet packet;
    int from_end = 0;  // 0: switch -> host, 1: host -> switch
  };

  explicit FrameCapture(topo::Link& link) {
    link.set_tap([this](const net::Packet& p, sim::Time, int from_end) {
      if (frames_.size() >= kFrames) return;
      net::Packet copy = p.clone();
      copy.meta().int_stack.clear();
      frames_.push_back(Frame{std::move(copy), from_end});
    });
  }

  FrameCapture(const FrameCapture&) = delete;
  FrameCapture& operator=(const FrameCapture&) = delete;

  [[nodiscard]] const std::vector<Frame>& frames() const { return frames_; }

 private:
  std::vector<Frame> frames_;
};

}  // namespace xmem::xbench
