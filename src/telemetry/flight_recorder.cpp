#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "telemetry/json.hpp"

namespace xmem::telemetry {

std::string_view to_string(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kOpBegin: return "op_begin";
    case FlightEventKind::kOpEnd: return "op_end";
    case FlightEventKind::kOpRetransmit: return "op_retransmit";
    case FlightEventKind::kChannelUp: return "channel_up";
    case FlightEventKind::kChannelDown: return "channel_down";
    case FlightEventKind::kFaultApplied: return "fault_applied";
    case FlightEventKind::kInvariantViolation: return "invariant_violation";
    case FlightEventKind::kNote: return "note";
  }
  return "unknown";
}

void FlightEvent::serialize(net::ByteWriter& w) const {
  w.u64(static_cast<std::uint64_t>(at));
  w.u8(kind);
  w.u8(flags);
  w.u16(subject);
  w.u32(code);
  w.u64(static_cast<std::uint64_t>(a));
  w.u64(static_cast<std::uint64_t>(b));
  w.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(label.data()), label.size()));
}

FlightEvent FlightEvent::parse(net::ByteReader& r) {
  FlightEvent e;
  e.at = static_cast<sim::Time>(r.u64());
  e.kind = r.u8();
  e.flags = r.u8();
  e.subject = r.u16();
  e.code = r.u32();
  e.a = static_cast<std::int64_t>(r.u64());
  e.b = static_cast<std::int64_t>(r.u64());
  const auto raw = r.bytes(e.label.size());
  std::memcpy(e.label.data(), raw.data(), e.label.size());
  return e;
}

std::string_view FlightEvent::label_view() const {
  std::size_t len = 0;
  while (len < label.size() && label[len] != '\0') ++len;
  return {label.data(), len};
}

FlightRecorder::FlightRecorder(sim::Simulator& simulator, std::size_t capacity)
    : sim_(&simulator), ring_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("FlightRecorder: capacity must be > 0");
  }
}

void FlightRecorder::record(FlightEventKind kind, std::uint16_t subject,
                            std::uint32_t code, std::int64_t a, std::int64_t b,
                            std::string_view label) {
  FlightEvent& e = ring_.push();
  e.at = sim_->now();
  e.kind = static_cast<std::uint8_t>(kind);
  e.flags = 0;
  e.subject = subject;
  e.code = code;
  e.a = a;
  e.b = b;
  e.label.fill('\0');
  const std::size_t n = std::min(label.size(), e.label.size());
  std::memcpy(e.label.data(), label.data(), n);
}

std::string FlightRecorder::dump_json(std::string_view reason) const {
  json::JsonWriter w;
  w.begin_object();
  w.kv("schema", "xmem-postmortem-v1");
  w.kv("reason", reason);
  w.kv("dumped_at_us", sim::to_microseconds(sim_->now()));
  w.kv("capacity", static_cast<std::int64_t>(capacity()));
  w.kv("total_recorded", static_cast<std::int64_t>(total_recorded()));
  w.kv("overwritten", static_cast<std::int64_t>(overwritten()));
  w.key("events");
  w.begin_array();
  for (const FlightEvent& e : events()) {
    w.begin_object();
    w.kv("t_us", sim::to_microseconds(e.at));
    w.kv("kind", to_string(static_cast<FlightEventKind>(e.kind)));
    w.kv("subject", static_cast<std::int64_t>(e.subject));
    w.kv("code", static_cast<std::int64_t>(e.code));
    w.kv("a", e.a);
    w.kv("b", e.b);
    w.kv("label", e.label_view());
    w.end_object();
  }
  w.end_array();
  if (registry_ != nullptr) {
    w.key("metrics");
    registry_->write_rows(w);
  }
  w.end_object();
  return w.take();
}

bool FlightRecorder::write_postmortem(const std::string& path,
                                      std::string_view reason) const {
  return write_file(path, dump_json(reason));
}

}  // namespace xmem::telemetry
