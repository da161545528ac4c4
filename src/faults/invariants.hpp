// InvariantChecker: the drain-time contract audit the chaos harness
// runs after any scenario. Each invariant is a named predicate over the
// final state of a primitive (plus its server-side ground truth); run()
// evaluates all of them and returns the violations, so a chaos test is
// "run the plan, drain, EXPECT run().empty()".
//
// Canned invariants cover the three primitives' paper contracts:
//   - state store:   quiescent, and remote counters sum to exactly the
//                    sampled packet count (reliable mode exactness);
//   - lookup table:  nothing outstanding, and every remote lookup is
//                    accounted as applied or one of the drop causes
//                    (request/response matching, cache-disabled form);
//   - packet buffer: fully drained with nothing in flight, and the
//                    protected flow's sink saw FIFO order with no loss;
//   - tracer:        no open spans after quiesce (every op's span was
//                    closed by exactly one completion path).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/lookup_table.hpp"
#include "core/packet_buffer.hpp"
#include "core/state_store.hpp"
#include "host/sink.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/op_tracer.hpp"

namespace xmem::faults {

struct Violation {
  std::string name;    // which invariant
  std::string detail;  // what was observed vs expected
};

class InvariantChecker {
 public:
  /// nullopt = pass; a string = violation detail.
  using CheckFn = std::function<std::optional<std::string>()>;

  void add(std::string name, CheckFn fn);

  /// --- Canned primitive contracts ------------------------------------
  /// Reliable state-store exactness: the store is quiescent and
  /// `remote_total()` (the control plane's sum over every shard's
  /// region) equals the number of sampled packets.
  void require_state_store_exact(const core::StateStorePrimitive& store,
                                 std::function<std::uint64_t()> remote_total);

  /// Lookup response/request matching (for cache-disabled configs):
  /// nothing outstanding and remote_lookups == applied + no_entry_drops
  /// + collision_drops + lost_responses + oversized_drops.
  void require_lookup_accounted(const core::LookupTablePrimitive& table);

  /// Packet-buffer FIFO + no-loss-in-reliable-mode: the ring drained
  /// completely (nothing in flight, deferred or unacked) and the
  /// protected flow's sink observed zero reordering and zero missing
  /// sequence numbers end to end.
  void require_packet_buffer_fifo(const core::PacketBufferPrimitive& buffer,
                                  const host::PacketSink& sink);

  /// OpTracer audit: no spans left open after quiesce.
  void require_no_open_spans(const telemetry::OpTracer& tracer);

  /// Congestion-control sanity after drain: no op is parked forever in a
  /// channel's pacing queue, and every DCQCN controller's state is
  /// well-formed (alpha in [0,1], min_rate <= rate <= target <= line
  /// rate). Holds vacuously for channels with CC disabled.
  void require_cc_sane(const core::ChannelSet& channels);

  /// On any run() that returns violations: record each into `recorder`
  /// and, when `postmortem_path` is non-empty, write the recorder's
  /// dump bundle there — a failing chaos test leaves its event tail
  /// behind automatically. A bundle that cannot be written adds one more
  /// violation, "postmortem", naming the path. Recorder not owned;
  /// nullptr detaches.
  void set_flight_recorder(telemetry::FlightRecorder* recorder,
                           std::string postmortem_path = "") {
    flight_recorder_ = recorder;
    postmortem_path_ = std::move(postmortem_path);
  }

  /// Evaluate every invariant; empty result = all hold.
  [[nodiscard]] std::vector<Violation> run() const;

  /// Human-readable "name: detail" lines for a failing test's message.
  [[nodiscard]] static std::string describe(
      const std::vector<Violation>& violations);

  [[nodiscard]] std::size_t size() const { return checks_.size(); }

 private:
  struct Check {
    std::string name;
    CheckFn fn;
  };
  std::vector<Check> checks_;
  telemetry::FlightRecorder* flight_recorder_ = nullptr;
  std::string postmortem_path_;
};

}  // namespace xmem::faults
