#include "faults/invariants.hpp"

#include <sstream>
#include <utility>

namespace xmem::faults {

void InvariantChecker::add(std::string name, CheckFn fn) {
  checks_.push_back({std::move(name), std::move(fn)});
}

void InvariantChecker::require_state_store_exact(
    const core::StateStorePrimitive& store,
    std::function<std::uint64_t()> remote_total) {
  add("state_store_quiescent", [&store]() -> std::optional<std::string> {
    if (store.quiescent()) return std::nullopt;
    std::ostringstream out;
    out << "outstanding=" << store.outstanding()
        << " unflushed=" << store.unflushed();
    return out.str();
  });
  add("state_store_exact",
      [&store, total = std::move(remote_total)]() -> std::optional<std::string> {
        const std::uint64_t remote = total();
        const std::uint64_t sampled = store.stats().sampled_packets;
        if (remote == sampled) return std::nullopt;
        std::ostringstream out;
        out << "remote counter sum " << remote << " != sampled packets "
            << sampled;
        return out.str();
      });
}

void InvariantChecker::require_lookup_accounted(
    const core::LookupTablePrimitive& table) {
  add("lookup_drained", [&table]() -> std::optional<std::string> {
    if (table.outstanding() == 0) return std::nullopt;
    std::ostringstream out;
    out << table.outstanding() << " lookups still outstanding";
    return out.str();
  });
  add("lookup_accounted", [&table]() -> std::optional<std::string> {
    // Every remote lookup either applied an action or is attributed to a
    // concrete drop cause. Only valid with the SRAM cache disabled
    // (`applied` also counts cache hits, which never issue a READ).
    const auto& s = table.stats();
    const std::uint64_t accounted = s.applied + s.no_entry_drops +
                                    s.collision_drops + s.lost_responses +
                                    s.oversized_drops;
    if (s.remote_lookups == accounted) return std::nullopt;
    std::ostringstream out;
    out << "remote_lookups=" << s.remote_lookups << " but accounted "
        << accounted << " (applied=" << s.applied
        << " no_entry=" << s.no_entry_drops
        << " collision=" << s.collision_drops
        << " lost=" << s.lost_responses << " oversized=" << s.oversized_drops
        << ")";
    return out.str();
  });
}

void InvariantChecker::require_packet_buffer_fifo(
    const core::PacketBufferPrimitive& buffer, const host::PacketSink& sink) {
  add("packet_buffer_drained", [&buffer]() -> std::optional<std::string> {
    if (buffer.quiescent()) return std::nullopt;
    std::ostringstream out;
    const auto& s = buffer.stats();
    out << "ring not drained (stored=" << s.stored << " loaded=" << s.loaded
        << ")";
    return out.str();
  });
  add("packet_buffer_fifo", [&sink]() -> std::optional<std::string> {
    if (sink.reordered() == 0) return std::nullopt;
    std::ostringstream out;
    out << sink.reordered() << " packets arrived out of order";
    return out.str();
  });
  add("packet_buffer_no_loss", [&sink]() -> std::optional<std::string> {
    if (sink.missing() == 0) return std::nullopt;
    std::ostringstream out;
    out << sink.missing() << " of " << sink.max_sequence_plus_one()
        << " sequences never arrived";
    return out.str();
  });
}

void InvariantChecker::require_cc_sane(const core::ChannelSet& channels) {
  add("cc_sane", [&channels]() -> std::optional<std::string> {
    std::ostringstream out;
    bool bad = false;
    for (std::size_t i = 0; i < channels.size(); ++i) {
      const core::RdmaChannel& ch = channels.at(i);
      if (ch.paced_backlog() != 0) {
        bad = true;
        out << "shard" << i << ": " << ch.paced_backlog()
            << " ops stuck in the pacing queue; ";
      }
      const core::DcqcnRateController* cc = ch.rate_controller();
      if (cc == nullptr) continue;
      if (cc->alpha() < 0.0 || cc->alpha() > 1.0) {
        bad = true;
        out << "shard" << i << ": alpha=" << cc->alpha() << " outside [0,1]; ";
      }
      using Dcqcn = core::DcqcnRateController;
      if (cc->rate() < Dcqcn::kMinRate || cc->rate() > Dcqcn::kLineRate ||
          cc->rate() > cc->target()) {
        bad = true;
        out << "shard" << i << ": rate=" << cc->rate() << " outside [min="
            << Dcqcn::kMinRate << ", target=" << cc->target()
            << " <= line=" << Dcqcn::kLineRate << "]; ";
      }
    }
    if (!bad) return std::nullopt;
    return out.str();
  });
}

void InvariantChecker::require_no_open_spans(
    const telemetry::OpTracer& tracer) {
  add("tracer_no_open_spans", [&tracer]() -> std::optional<std::string> {
    if (tracer.open_spans() == 0) return std::nullopt;
    std::ostringstream out;
    out << tracer.open_spans() << " spans left open (opened="
        << tracer.stats().spans_opened
        << " closed=" << tracer.stats().spans_closed << ")";
    return out.str();
  });
}

std::vector<Violation> InvariantChecker::run() const {
  std::vector<Violation> violations;
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (std::optional<std::string> detail = checks_[i].fn()) {
      if (flight_recorder_) {
        flight_recorder_->record(
            telemetry::FlightEventKind::kInvariantViolation, 0,
            static_cast<std::uint32_t>(i), 0, 0, checks_[i].name);
      }
      violations.push_back({checks_[i].name, std::move(*detail)});
    }
  }
  if (!violations.empty() && flight_recorder_ && !postmortem_path_.empty() &&
      !flight_recorder_->write_postmortem(
          postmortem_path_,
          "invariant violation: " + violations.front().name)) {
    violations.push_back({"postmortem", "cannot write " + postmortem_path_});
  }
  return violations;
}

std::string InvariantChecker::describe(
    const std::vector<Violation>& violations) {
  std::ostringstream out;
  for (const Violation& v : violations) {
    out << v.name << ": " << v.detail << "\n";
  }
  return out.str();
}

}  // namespace xmem::faults
