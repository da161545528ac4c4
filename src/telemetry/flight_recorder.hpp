// FlightRecorder: the last N things that happened, for postmortems.
//
// A fixed-size overwrite-oldest ring (telemetry::Ring) of compact events
// — op span open/close/retransmit (mirrored from OpTracer), channel
// health transitions (core::ChannelSet), fault-scheduler actions and
// invariant violations. In steady state it costs one ring slot write per
// event and nothing else; when an InvariantChecker violation fires, the
// ring is dumped as a postmortem JSON bundle: the reason, the recent
// event tail oldest-first, and optionally a full metrics snapshot. A
// failed chaos run therefore leaves behind the sequence of events that
// led up to the failure instead of a boolean.
//
// Retention policy: `capacity` events (default 512); older events are
// overwritten and counted in `overwritten()`. The dump never allocates
// proportionally to run length.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/bytes.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/ring.hpp"

namespace xmem::telemetry {

enum class FlightEventKind : std::uint8_t {
  kOpBegin = 1,
  kOpEnd = 2,
  kOpRetransmit = 3,
  kChannelUp = 4,
  kChannelDown = 5,
  kFaultApplied = 6,
  kInvariantViolation = 7,
  kNote = 8,
};

[[nodiscard]] std::string_view to_string(FlightEventKind kind);

/// One ring slot. Fixed-size on purpose: recording must never allocate,
/// and the wire layout is pinned so dumps can be parsed byte-exactly.
struct FlightEvent {
  sim::Time at = 0;           ///< Simulated time, picoseconds.
  std::uint8_t kind = 0;      ///< FlightEventKind.
  std::uint8_t flags = 0;     ///< Reserved.
  std::uint16_t subject = 0;  ///< Track id / shard / fault target.
  std::uint32_t code = 0;     ///< PSN raw / fault kind / check index.
  std::int64_t a = 0;         ///< Kind-specific (op bytes, ...).
  std::int64_t b = 0;         ///< Kind-specific.
  std::array<char, 24> label{};  ///< Truncated text, NUL-padded.

  static constexpr std::size_t kWireBytes = 56;

  void serialize(net::ByteWriter& w) const;
  [[nodiscard]] static FlightEvent parse(net::ByteReader& r);

  [[nodiscard]] std::string_view label_view() const;
};

static_assert(FlightEvent::kWireBytes == 8 + 1 + 1 + 2 + 4 + 8 + 8 + 24,
              "FlightEvent wire layout changed; update kWireBytes and the "
              "postmortem parser");

class FlightRecorder {
 public:
  explicit FlightRecorder(sim::Simulator& simulator,
                          std::size_t capacity = 512);
  // OpTracer, ChannelSet and InvariantChecker keep its address.
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Append one event at sim-now. Labels longer than the slot are
  /// truncated, never dropped.
  void record(FlightEventKind kind, std::uint16_t subject, std::uint32_t code,
              std::int64_t a, std::int64_t b, std::string_view label);

  /// Free-form marker ("scenario start", "drain begin", ...).
  void note(std::string_view label) {
    record(FlightEventKind::kNote, 0, 0, 0, 0, label);
  }

  /// Include this registry's full snapshot in every dump (not owned).
  void set_registry(const MetricsRegistry* registry) { registry_ = registry; }

  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t total_recorded() const {
    return ring_.size() + ring_.overwritten();
  }
  [[nodiscard]] std::uint64_t overwritten() const {
    return ring_.overwritten();
  }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<FlightEvent> events() const {
    return ring_.ordered();
  }

  /// Postmortem bundle, schema "xmem-postmortem-v1": reason, dump time,
  /// retention counters, the event tail (oldest first) and — when a
  /// registry is attached — a full metrics snapshot.
  [[nodiscard]] std::string dump_json(std::string_view reason) const;
  /// Write dump_json(reason) to `path`; false if it cannot be written.
  [[nodiscard]] bool write_postmortem(const std::string& path,
                                      std::string_view reason) const;

 private:
  sim::Simulator* sim_;
  const MetricsRegistry* registry_ = nullptr;
  Ring<FlightEvent> ring_;
};

}  // namespace xmem::telemetry
