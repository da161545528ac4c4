// OpTracer: spans on the *simulated* timeline, exported as Chrome
// trace-event JSON that Perfetto loads directly.
//
// The unit of tracing is the RDMA op: a span opens when the data plane
// injects a verb (post_write / post_read / post_fetch_add) and closes
// when its ACK / response / NAK is matched — keyed by (track, PSN),
// exactly the key the primitives already use for their in-flight
// bookkeeping. Retransmits annotate the open span instead of opening a
// second one, and a span closes at most once: the first close wins and
// records the status ("ok", "nak:remote_access_error", ...), so a NAK
// followed by a late ACK cannot double-report.
//
// Tracks map onto Perfetto's process/thread model: the whole simulation
// is one process (pid 1); each track — typically one RDMA channel /
// QP — is a thread with a stable tid and a thread_name metadata record.
//
// Times: the simulator's picosecond clock, exported as fractional
// microseconds (the trace-event format's native unit).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "roce/headers.hpp"
#include "sim/simulator.hpp"

namespace xmem::telemetry {

class FlightRecorder;

class OpTracer {
 public:
  struct Stats {
    std::uint64_t spans_opened = 0;
    std::uint64_t spans_closed = 0;
    std::uint64_t duplicate_closes = 0;  // ignored second closes
    std::uint64_t retransmits = 0;
  };

  explicit OpTracer(sim::Simulator& simulator,
                    std::string process_name = "switch");

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Create (or look up) the track named `name`; returns its tid.
  int track(const std::string& name);

  /// Open a span for op `name` (verb mnemonic) with key (track, psn).
  /// `bytes` is the op's payload/DMA size, recorded in args. Opening an
  /// already-open key counts as a retransmit annotation, not a new span.
  void begin_op(int track, std::string_view name, roce::Psn psn,
                std::uint64_t bytes);

  /// Close the span (track, psn) with the given status. The first close
  /// wins; subsequent closes are counted and ignored. Closing a key with
  /// no open span is a no-op (stale duplicate responses).
  void end_op(int track, roce::Psn psn, std::string_view status = "ok");

  /// Record a retransmission of the (still open) op. No-op if closed.
  void note_retransmit(int track, roce::Psn psn);

  /// Attach a NAK cause (or any annotation) to the open span without
  /// closing it — used when a NAK triggers a retransmit rather than
  /// abandoning the op. The annotation survives into the span's args.
  void annotate(int track, roce::Psn psn, std::string_view key,
                std::string_view value);

  [[nodiscard]] bool op_open(int track, roce::Psn psn) const;
  [[nodiscard]] std::size_t open_spans() const { return open_.size(); }

  /// Mirror every span open/close/retransmit into `recorder` (not
  /// owned; nullptr detaches) so the flight recorder's postmortem tail
  /// includes the in-flight op history.
  void set_flight_recorder(FlightRecorder* recorder) {
    flight_recorder_ = recorder;
  }

  /// Serialize everything recorded so far as Chrome trace-event JSON.
  /// Spans still open are emitted with dur up to sim-now and
  /// status="open" (they stay visible in Perfetto rather than vanishing).
  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  struct Annotation {
    std::string key;
    std::string value;
  };
  struct SpanEvent {
    std::string name;
    sim::Time start = 0;
    sim::Time duration = 0;
    int tid = 0;
    roce::Psn psn;
    std::uint64_t bytes = 0;
    std::uint32_t retransmits = 0;
    std::string status;
    std::vector<Annotation> annotations;
  };
  struct OpenSpan {
    std::string name;
    sim::Time start = 0;
    std::uint64_t bytes = 0;
    std::uint32_t retransmits = 0;
    std::vector<Annotation> annotations;
  };
  struct Key {
    int track = 0;
    roce::Psn psn;
    // raw() order is map-ordering only (deterministic export); it is NOT
    // wrap-aware protocol order, which psn_distance cannot provide either
    // (not a strict weak ordering over the wrap circle).
    bool operator<(const Key& o) const {
      if (track != o.track) return track < o.track;
      return psn.raw() < o.psn.raw();
    }
  };

  sim::Simulator* sim_;
  FlightRecorder* flight_recorder_ = nullptr;
  std::string process_name_;
  std::vector<std::string> track_names_;          // tid - 2 -> name
  std::map<std::string, int> track_by_name_;
  std::map<Key, OpenSpan> open_;
  std::vector<SpanEvent> spans_;
  Stats stats_;
};

}  // namespace xmem::telemetry
