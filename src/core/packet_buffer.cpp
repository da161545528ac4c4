#include "core/packet_buffer.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "net/bytes.hpp"

namespace xmem::core {

using switchsim::PipelineContext;
using switchsim::QueueEvent;

PacketBufferPrimitive::PacketBufferPrimitive(
    switchsim::ProgrammableSwitch& sw,
    std::vector<control::RdmaChannelConfig> channels, Config config)
    : switch_(&sw),
      channels_(sw, std::move(channels)),
      config_(config),
      inflight_(sw.simulator(), channels_.size(), config_.read_timeout,
                [this]() { on_timeout(); }) {
  if (config_.watch_port < 0) {
    throw std::invalid_argument("PacketBuffer: watch_port must be >= 0");
  }
  if (config_.entry_bytes < 4 + net::kEthernetMinFrame) {
    throw std::invalid_argument(
        "PacketBuffer: entry_bytes must hold a length word and a minimum "
        "Ethernet frame");
  }
  per_channel_slots_ = channels_.slots_per_shard(config_.entry_bytes);
  capacity_ = per_channel_slots_ * channels_.size();
  reads_per_stripe_.assign(channels_.size(), 0);
  channels_.set_health_fn([this](std::size_t shard, ChannelSet::Health h) {
    on_health_change(shard, h);
  });

  sw.add_ingress_stage("packet-buffer",
                       [this](PipelineContext& ctx) { on_ingress(ctx); });
  sw.tm().add_watcher([this](QueueEvent event, int port, std::int64_t depth) {
    on_queue_event(event, port, depth);
  });
}

void PacketBufferPrimitive::attach_telemetry(
    telemetry::MetricsRegistry* registry, telemetry::OpTracer* tracer,
    const std::string& prefix) {
  if (registry != nullptr) {
    registry->register_counter(prefix + "/stored", &stats_.stored, "packets");
    registry->register_counter(prefix + "/loaded", &stats_.loaded, "packets");
    registry->register_counter(prefix + "/ring_full_drops",
                               &stats_.ring_full_drops, "packets");
    registry->register_counter(prefix + "/lost_loads",
                               &stats_.lost_loads, "packets");
    registry->register_counter(prefix + "/read_retries",
                               &stats_.read_retries, "ops");
    registry->register_counter(prefix + "/write_retries",
                               &stats_.write_retries, "ops");
    registry->register_counter(prefix + "/deferred_stores",
                               &stats_.deferred_stores, "packets");
    registry->register_counter(prefix + "/naks", &stats_.naks, "ops");
    registry->register_counter(prefix + "/ecn_marked",
                               &stats_.ecn_marked, "packets");
    registry->register_counter(prefix + "/dead_stripe_drops",
                               &stats_.dead_stripe_drops, "packets");
    registry->register_counter(prefix + "/duplicate_responses",
                               &stats_.duplicate_responses, "ops");
    registry->register_counter(
        prefix + "/max_ring_depth",
        [this]() { return stats_.max_ring_depth; }, "entries");
    registry->register_gauge(
        prefix + "/ring_depth",
        [this]() { return static_cast<double>(ring_depth()); }, "entries");
    registry->register_gauge(
        prefix + "/diverting",
        [this]() { return diverting_ ? 1.0 : 0.0; }, "bool");
  }
  channels_.attach_telemetry(registry, tracer, prefix);
}

void PacketBufferPrimitive::set_load_enabled(bool enabled) {
  config_.load_enabled = enabled;
  if (enabled) maybe_issue_reads();
}

void PacketBufferPrimitive::on_ingress(PipelineContext& ctx) {
  if (channels_.intercept(ctx, [this](std::size_t shard,
                                      const roce::RoceMessage& msg) {
        handle_response(shard, msg);
      })) {
    return;
  }

  // Ordinary traffic: is it bound for the protected queue?
  std::optional<int> out = ctx.egress_port != switchsim::kNoPort
                               ? std::optional<int>(ctx.egress_port)
                               : switch_->l2_route_for(ctx.packet);
  if (!out || *out != config_.watch_port) return;

  const std::int64_t depth = switch_->tm().depth_bytes(config_.watch_port);
  if (diverting_ || depth >= config_.divert_threshold_bytes) {
    // Paper's ordering rule: once the ring is in use, every subsequent
    // packet for this queue goes through it too.
    diverting_ = true;
    store_packet(ctx.packet);
    ctx.consume();
    maybe_issue_reads();
  }
  // else: below threshold and not draining -> normal forwarding.
}

void PacketBufferPrimitive::store_packet(const net::Packet& packet) {
  if (ring_.size() >= capacity_) {
    ++stats_.ring_full_drops;  // remote buffer exhausted: best-effort drop
    return;
  }
  const std::uint64_t slot = head();
  const auto stripe = channels_.route(slot);
  if (!stripe) {
    if (config_.reliable_stores) {
      // Defer, don't drop: the slot is allocated *now* so global FIFO
      // order over the stripes survives, and the entry posts when the
      // stripe revives.
      ring_.push_back({SlotState::kDeferred, packet.clone()});
      ++stats_.deferred_stores;
      stats_.max_ring_depth = std::max(stats_.max_ring_depth, ring_depth());
      return;
    }
    // Drop-tail on the dead stripe: the slot is consumed as a hole so
    // the ring keeps striping onto the surviving servers in order, but
    // this packet is gone — a WRITE to a dead server lands nowhere.
    ring_.push_back({SlotState::kLost, {}});
    ++stats_.dead_stripe_drops;
    drain();
    return;
  }

  // The entry, [u32 len][frame], is written straight into the WRITE.
  const roce::Psn psn = channels_.at(*stripe).post_write(
      slot_va(slot), FramedEntry(packet.bytes()).gather(),
      /*ack_req=*/config_.reliable_stores);
  if (config_.reliable_stores) {
    ring_.push_back({SlotState::kWriting, packet.clone()});
    inflight_.add(*stripe, psn, slot);
    inflight_.arm();
  } else {
    ring_.push_back({SlotState::kStored, {}});
  }
  ++stats_.stored;
  stats_.max_ring_depth = std::max(stats_.max_ring_depth, ring_depth());
}

void PacketBufferPrimitive::on_queue_event(QueueEvent event, int port,
                                           std::int64_t /*depth_bytes*/) {
  if (port != config_.watch_port || event != QueueEvent::kDequeue) return;
  maybe_issue_reads();
}

void PacketBufferPrimitive::maybe_issue_reads() {
  if (!config_.load_enabled) return;
  // The drain may have popped holes the reader had not reached yet.
  next_read_slot_ = std::max(next_read_slot_, tail_);
  bool punched_hole = false;
  while (next_read_slot_ < head() &&
         switch_->tm().depth_bytes(config_.watch_port) <=
             config_.resume_threshold_bytes) {
    Slot& slot = at(next_read_slot_);
    if (slot.state == SlotState::kLost) {
      ++next_read_slot_;  // already a hole (dead-stripe store): skip
      continue;
    }
    if (slot.state != SlotState::kStored) {
      break;  // entry WRITE not acknowledged yet: reading would race it
    }
    const std::size_t chan = channel_of(next_read_slot_);
    if (!channels_.is_up(chan)) {
      if (config_.reliable_loads) break;  // hold: data survives in its DRAM
      // Best-effort: the stored frame is unreachable; hole it so the
      // drain keeps moving over the surviving stripes.
      slot.state = SlotState::kLost;
      ++stats_.lost_loads;
      ++next_read_slot_;
      punched_hole = true;
      continue;
    }
    if (reads_per_stripe_[chan] >= kReadPipelineDepth) break;
    const roce::Psn psn = channels_.at(chan).post_read(
        slot_va(next_read_slot_),
        static_cast<std::uint32_t>(config_.entry_bytes));
    inflight_.add(chan, psn, next_read_slot_);
    slot.state = SlotState::kReading;
    ++reads_per_stripe_[chan];
    ++next_read_slot_;
    // Reliable mode uses the timer to retransmit; unreliable mode uses it
    // as a scavenger so a lost final response cannot wedge the drain.
    inflight_.arm();
  }
  if (punched_hole) drain();
}

std::optional<std::uint64_t> PacketBufferPrimitive::complete(
    std::size_t stripe, roce::Psn psn, SlotState state) {
  const Inflight::Entry* t = inflight_.find(stripe, psn);
  if (t == nullptr || at(t->op).state != state) {
    ++stats_.duplicate_responses;  // stale or duplicated delivery
    return std::nullopt;
  }
  return inflight_.erase(stripe, psn)->op;
}

void PacketBufferPrimitive::handle_response(std::size_t channel_index,
                                            const roce::RoceMessage& msg) {
  const roce::Opcode op = msg.opcode();
  if (roce::is_read_response(op)) {
    const auto slot = complete(channel_index, msg.bth.psn, SlotState::kReading);
    if (!slot) return;
    // Bookkeeping before note_ok(): it may run the up-transition
    // recovery synchronously, which must see this READ as done.
    --reads_per_stripe_[channel_index];
    last_read_progress_ = switch_->simulator().now();
    channels_.note_ok(channel_index);
    channels_.at(channel_index).trace_complete(msg.bth.psn);

    // Decapsulate [u32 len][frame] back into the original packet, a
    // slice of the response frame. A corrupt entry, or an empty one whose
    // WRITE never landed, is counted lost and holed.
    Slot& s = at(*slot);
    try {
      s.frame = unframe(msg.payload, 0);
      s.frame.meta().from_remote_buffer = true;
    } catch (const net::BufferError&) {
    }
    if (s.frame.size() > 0) {
      s.state = SlotState::kLoaded;
    } else {
      s = {SlotState::kLost, {}};
      ++stats_.lost_loads;
    }
    drain();
    maybe_issue_reads();
    return;
  }

  if (op == roce::Opcode::kAcknowledge &&
      (!msg.aeth || !msg.aeth->is_nak())) {
    // Positive ACK: completes a reliable-store WRITE.
    const auto slot = complete(channel_index, msg.bth.psn, SlotState::kWriting);
    if (!slot) return;
    at(*slot) = {SlotState::kStored, {}};
    last_read_progress_ = switch_->simulator().now();
    channels_.note_ok(channel_index);
    channels_.at(channel_index).trace_complete(msg.bth.psn);
    maybe_issue_reads();
    return;
  }

  if ((op == roce::Opcode::kAcknowledge) && msg.aeth && msg.aeth->is_nak()) {
    // Duplicated NAK frames must not double-count naks or the health
    // streak.
    if (!channels_.note_nak_once(channel_index, msg)) {
      ++stats_.duplicate_responses;
      return;
    }
    ++stats_.naks;
    // The op's span stays open — either the timeout retransmits it
    // (reliable) or the scavenger closes it as "lost" (best-effort).
    channels_.at(channel_index).trace_annotate(
        msg.bth.psn, "nak", roce::to_string(msg.aeth->syndrome));
  }
}

void PacketBufferPrimitive::reconnect(std::size_t stripe,
                                      control::RdmaChannelConfig config) {
  channels_.reconnect(stripe, std::move(config));
  // Any request in flight across the crash may have been lost, but the
  // stripe's DRAM survived and duplicates are idempotent at the
  // responder (WRITEs re-execute, READs re-serve), so rerun the
  // up-transition recovery straight away rather than waiting a timeout
  // round. If the health machinery marked the stripe down, the probe
  // path runs the same recovery once it answers.
  if (channels_.is_up(stripe)) {
    on_health_change(stripe, ChannelSet::Health::kUp);
  }
}

void PacketBufferPrimitive::on_health_change(std::size_t shard,
                                             ChannelSet::Health health) {
  if (health == ChannelSet::Health::kUp) {
    if (config_.reliable_stores) {
      // Unacknowledged WRITEs may or may not have landed before the
      // stripe died; repost them in PSN order (original PSN — the
      // responder re-executes duplicates of self-contained writes
      // idempotently).
      inflight_.for_each(shard, [&](const Inflight::Entry& t) {
        if (at(t.op).state == SlotState::kWriting) repost(shard, t);
      });
      // Post the entries that were parked while the stripe was down.
      bool posted = false;
      for (std::uint64_t slot = tail_; slot < head(); ++slot) {
        Slot& s = at(slot);
        if (channel_of(slot) != shard || s.state != SlotState::kDeferred) {
          continue;
        }
        const roce::Psn psn = channels_.at(shard).post_write(
            slot_va(slot), FramedEntry(s.frame.bytes()).gather(),
            /*ack_req=*/true);
        inflight_.add(shard, psn, slot);
        s.state = SlotState::kWriting;
        ++stats_.stored;
        posted = true;
      }
      if (posted) inflight_.arm();
    }
    if (config_.reliable_loads) {
      // The stripe is back and its DRAM still holds our frames:
      // re-request everything that was outstanding when it died.
      inflight_.for_each(shard, [&](const Inflight::Entry& t) {
        if (at(t.op).state == SlotState::kReading) repost(shard, t);
      });
    }
    maybe_issue_reads();
    return;
  }
  if (config_.reliable_loads) return;  // hold in-flight state for recovery
  // Best-effort down transition: in-flight READs on this stripe will
  // never answer — hole their slots now, in PSN order, so the drain
  // moves on.
  const auto reads = inflight_.keys(
      [&](std::size_t s, const Inflight::Entry& t) {
        return s == shard && at(t.op).state == SlotState::kReading;
      });
  for (const auto& key : reads) {
    at(inflight_.erase(shard, key.psn)->op).state = SlotState::kLost;
    --reads_per_stripe_[shard];
    ++stats_.lost_loads;
    channels_.at(shard).trace_complete(key.psn, "failover");
  }
  drain();
  maybe_issue_reads();
}

void PacketBufferPrimitive::repost(std::size_t stripe,
                                   const Inflight::Entry& t) {
  const Slot& slot = at(t.op);
  if (slot.state == SlotState::kWriting) {
    channels_.at(stripe).repost_write(
        slot_va(t.op), FramedEntry(slot.frame.bytes()).gather(), t.psn);
    ++stats_.write_retries;
  } else {
    channels_.at(stripe).repost_read(
        slot_va(t.op), static_cast<std::uint32_t>(config_.entry_bytes),
        t.psn);
    ++stats_.read_retries;
  }
}

void PacketBufferPrimitive::drain() {
  while (!ring_.empty() && (ring_.front().state == SlotState::kLoaded ||
                            ring_.front().state == SlotState::kLost)) {
    // The ring-depth ECN test counts the slot being drained.
    const bool mark = config_.ecn_mark_ring_depth > 0 &&
                      ring_depth() > config_.ecn_mark_ring_depth;
    Slot slot = std::move(ring_.front());
    // Advance before inject(): the traffic manager's dequeue watcher can
    // re-enter the drain, which must start at the next slot.
    ring_.pop_front();
    ++tail_;
    if (slot.state == SlotState::kLost) continue;
    if (mark) {
      // Surface the hidden backlog to end-to-end congestion control:
      // mark ECT packets CE exactly as a deep physical queue would.
      try {
        const auto headers = net::parse_packet(slot.frame);
        if (headers.ipv4 && headers.ipv4->ecn != net::Ecn::kNotEct) {
          net::set_ecn(slot.frame, net::Ecn::kCe);
          ++stats_.ecn_marked;
        }
      } catch (const net::BufferError&) {
      }
    }
    switch_->inject(std::move(slot.frame), config_.watch_port);
    ++stats_.loaded;
  }

  if (ring_.empty() &&
      std::ranges::all_of(reads_per_stripe_, [](int n) { return n == 0; })) {
    diverting_ = false;  // ring fully drained; back to the fast path
  }
}

void PacketBufferPrimitive::on_timeout() {
  // Progress is judged set-wide.
  if (switch_->simulator().now() - last_read_progress_ <
      config_.read_timeout) {
    return;
  }
  // Snapshot what was stalled *before* reporting: note_timeout() can
  // trip a down transition whose handler reclaims entries and posts
  // fresh READs, and those must not be swept up below.
  const auto stale =
      inflight_.keys([](std::size_t, const Inflight::Entry&) { return true; });
  std::vector<bool> stalled(channels_.size());
  for (std::size_t chan = 0; chan < stalled.size(); ++chan) {
    stalled[chan] = inflight_.size(chan) > 0;
  }
  // One timeout observation per stripe with stalled ops: this is what
  // eventually trips a dead stripe's health state.
  for (std::size_t chan = 0; chan < stalled.size(); ++chan) {
    if (stalled[chan]) channels_.note_timeout(chan);
  }
  // Retransmit on live stripes with the original PSN — unacknowledged
  // entry WRITEs first (duplicates re-execute idempotently), then, in
  // reliable mode, every outstanding READ (the responder re-serves
  // duplicates and executes fresh PSNs, so this is safe whether the
  // request or the response was lost). Stripes that just failed over
  // hold their slots until recovery.
  for (const SlotState state : {SlotState::kWriting, SlotState::kReading}) {
    if (state == SlotState::kReading && !config_.reliable_loads) break;
    for (const auto& key : stale) {
      const Inflight::Entry* t = inflight_.find(key.shard, key.psn);
      if (t == nullptr || at(t->op).state != state ||
          !channels_.is_up(key.shard)) {
        continue;
      }
      repost(key.shard, *t);
    }
  }
  if (config_.reliable_loads) return;
  // Best-effort: give up on the stalled READs so the drain keeps moving;
  // their packets are lost. A down transition above may already have
  // reclaimed some of them.
  for (const auto& key : stale) {
    const Inflight::Entry* t = inflight_.find(key.shard, key.psn);
    if (t == nullptr || at(t->op).state != SlotState::kReading) continue;
    at(t->op).state = SlotState::kLost;
    ++stats_.lost_loads;
    channels_.at(key.shard).trace_complete(key.psn, "lost");
    inflight_.erase(key.shard, key.psn);
    --reads_per_stripe_[key.shard];
  }
  drain();
  maybe_issue_reads();
}

}  // namespace xmem::core
