#include "telemetry/op_tracer.hpp"

#include "telemetry/flight_recorder.hpp"
#include "telemetry/json.hpp"

namespace xmem::telemetry {

namespace {
/// Picoseconds -> the trace-event format's microsecond timestamps.
double to_trace_us(sim::Time t) {
  return static_cast<double>(t) / 1e6;
}
constexpr int kPid = 1;
constexpr int kFirstTid = 2;  // pinned: traces number their tracks from 2
}  // namespace

OpTracer::OpTracer(sim::Simulator& simulator, std::string process_name)
    : sim_(&simulator), process_name_(std::move(process_name)) {}

int OpTracer::track(const std::string& name) {
  auto it = track_by_name_.find(name);
  if (it != track_by_name_.end()) return it->second;
  const int tid = kFirstTid + static_cast<int>(track_names_.size());
  track_names_.push_back(name);
  track_by_name_.emplace(name, tid);
  return tid;
}

void OpTracer::begin_op(int track, std::string_view name, roce::Psn psn,
                        std::uint64_t bytes) {
  const Key key{track, psn};
  auto it = open_.find(key);
  if (it != open_.end()) {
    // PSN reuse while the op is open = a retransmission of the same op.
    ++it->second.retransmits;
    ++stats_.retransmits;
    if (flight_recorder_) {
      flight_recorder_->record(FlightEventKind::kOpRetransmit,
                               static_cast<std::uint16_t>(track), psn.raw(),
                               0, 0, name);
    }
    return;
  }
  OpenSpan span;
  span.name = std::string(name);
  span.start = sim_->now();
  span.bytes = bytes;
  open_.emplace(key, std::move(span));
  ++stats_.spans_opened;
  if (flight_recorder_) {
    flight_recorder_->record(FlightEventKind::kOpBegin,
                             static_cast<std::uint16_t>(track), psn.raw(),
                             static_cast<std::int64_t>(bytes), 0, name);
  }
}

void OpTracer::end_op(int track, roce::Psn psn, std::string_view status) {
  auto it = open_.find(Key{track, psn});
  if (it == open_.end()) {
    ++stats_.duplicate_closes;
    return;
  }
  SpanEvent ev;
  ev.name = std::move(it->second.name);
  ev.start = it->second.start;
  ev.duration = sim_->now() - it->second.start;
  ev.tid = track;
  ev.psn = psn;
  ev.bytes = it->second.bytes;
  ev.retransmits = it->second.retransmits;
  ev.status = std::string(status);
  ev.annotations = std::move(it->second.annotations);
  open_.erase(it);
  spans_.push_back(std::move(ev));
  ++stats_.spans_closed;
  if (flight_recorder_) {
    flight_recorder_->record(FlightEventKind::kOpEnd,
                             static_cast<std::uint16_t>(track), psn.raw(),
                             0, 0, status);
  }
}

void OpTracer::note_retransmit(int track, roce::Psn psn) {
  auto it = open_.find(Key{track, psn});
  if (it == open_.end()) return;
  ++it->second.retransmits;
  ++stats_.retransmits;
  if (flight_recorder_) {
    flight_recorder_->record(FlightEventKind::kOpRetransmit,
                             static_cast<std::uint16_t>(track), psn.raw(),
                             0, 0, it->second.name);
  }
}

void OpTracer::annotate(int track, roce::Psn psn, std::string_view key,
                        std::string_view value) {
  auto it = open_.find(Key{track, psn});
  if (it == open_.end()) return;
  for (Annotation& a : it->second.annotations) {
    if (a.key == key) {
      a.value = std::string(value);
      return;
    }
  }
  it->second.annotations.push_back(
      Annotation{std::string(key), std::string(value)});
}

bool OpTracer::op_open(int track, roce::Psn psn) const {
  return open_.count(Key{track, psn}) > 0;
}

std::string OpTracer::chrome_trace_json() const {
  json::JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ns");
  w.key("traceEvents");
  w.begin_array();

  // Metadata: one process, one named thread per track.
  w.begin_object();
  w.kv("ph", "M");
  w.kv("pid", kPid);
  w.kv("name", "process_name");
  w.key("args");
  w.begin_object();
  w.kv("name", std::string_view(process_name_));
  w.end_object();
  w.end_object();
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    w.begin_object();
    w.kv("ph", "M");
    w.kv("pid", kPid);
    w.kv("tid", kFirstTid + static_cast<int>(i));
    w.kv("name", "thread_name");
    w.key("args");
    w.begin_object();
    w.kv("name", std::string_view(track_names_[i]));
    w.end_object();
    w.end_object();
  }

  auto span_event = [&](const SpanEvent& s) {
    w.begin_object();
    w.kv("ph", "X");
    w.kv("pid", kPid);
    w.kv("tid", s.tid);
    w.kv("name", std::string_view(s.name));
    w.kv("cat", "rdma");
    w.kv("ts", to_trace_us(s.start));
    w.kv("dur", to_trace_us(s.duration));
    w.key("args");
    w.begin_object();
    w.kv("psn", static_cast<std::int64_t>(s.psn.raw()));
    w.kv("bytes", s.bytes);
    w.kv("status", std::string_view(s.status));
    if (s.retransmits > 0) {
      w.kv("retransmits", static_cast<std::int64_t>(s.retransmits));
    }
    for (const Annotation& a : s.annotations) {
      w.kv(a.key, std::string_view(a.value));
    }
    w.end_object();
    w.end_object();
  };

  for (const SpanEvent& s : spans_) span_event(s);

  // Spans never closed (op still in flight, or response lost forever):
  // export them with status "open" so the timeline shows the gap instead
  // of silently dropping the op.
  const sim::Time now = sim_->now();
  for (const auto& [key, open] : open_) {
    SpanEvent s;
    s.name = open.name;
    s.start = open.start;
    s.duration = now - open.start;
    s.tid = key.track;
    s.psn = key.psn;
    s.bytes = open.bytes;
    s.retransmits = open.retransmits;
    s.status = "open";
    s.annotations = open.annotations;
    span_event(s);
  }

  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace xmem::telemetry
