#include "core/state_store.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "net/flow.hpp"

namespace xmem::core {

using switchsim::PipelineContext;

StateStorePrimitive::StateStorePrimitive(
    switchsim::ProgrammableSwitch& sw,
    std::vector<control::RdmaChannelConfig> channels, Config config)
    : switch_(&sw),
      channels_(sw, std::move(channels)),
      config_(std::move(config)),
      inflight_(sw.simulator(), channels_.size(), config_.retransmit_timeout,
                [this]() { on_timeout(); }) {
  if (config_.max_outstanding <= 0) {
    throw std::invalid_argument("StateStore: max_outstanding must be > 0");
  }
  if (config_.combining_window < 1) {
    throw std::invalid_argument("StateStore: combining_window must be >= 1");
  }
  n_counters_ = channels_.slots_per_shard(8) * channels_.size();
  last_progress_.assign(channels_.size(), 0);
  eligible_.resize(channels_.size());
  channels_.set_health_fn([this](std::size_t shard, ChannelSet::Health h) {
    on_health_change(shard, h);
  });

  if (!config_.sample_fn) {
    const std::uint64_t n = n_counters_;
    config_.sample_fn =
        [n](const net::Packet& p) -> std::optional<std::uint64_t> {
      auto tuple = net::extract_five_tuple(p);
      if (!tuple) return std::nullopt;
      return net::flow_hash(*tuple, kHashSeed) % n;
    };
  }

  sw.add_ingress_stage("state-store",
                       [this](PipelineContext& ctx) { on_ingress(ctx); });
}

void StateStorePrimitive::attach_telemetry(
    telemetry::MetricsRegistry* registry, telemetry::OpTracer* tracer,
    const std::string& prefix) {
  if (registry != nullptr) {
    registry->register_counter(prefix + "/sampled_packets",
                               &stats_.sampled_packets, "packets");
    registry->register_counter(prefix + "/fetch_adds_sent",
                               &stats_.fetch_adds_sent, "ops");
    registry->register_counter(prefix + "/acks_received",
                               &stats_.acks_received, "ops");
    registry->register_counter(prefix + "/naks_received",
                               &stats_.naks_received, "ops");
    registry->register_counter(prefix + "/accumulated",
                               &stats_.accumulated, "counts");
    registry->register_counter(prefix + "/retransmits",
                               &stats_.retransmits, "ops");
    registry->register_counter(prefix + "/max_outstanding_seen",
                               &stats_.max_outstanding_seen, "ops");
    registry->register_counter(prefix + "/counts_in_flight_lost",
                               &stats_.counts_in_flight_lost, "counts");
    registry->register_counter(prefix + "/failover_reissues",
                               &stats_.failover_reissues, "counts");
    registry->register_counter(prefix + "/duplicate_responses",
                               &stats_.duplicate_responses, "ops");
    registry->register_gauge(
        prefix + "/outstanding",
        [this]() { return static_cast<double>(outstanding()); }, "ops");
    registry->register_gauge(
        prefix + "/unflushed",
        [this]() { return static_cast<double>(unflushed()); }, "counts");
  }
  channels_.attach_telemetry(registry, tracer, prefix);
}

std::uint64_t StateStorePrimitive::unflushed() const {
  return unflushed_total_;
}

void StateStorePrimitive::on_ingress(PipelineContext& ctx) {
  if (channels_.intercept(ctx, [this](std::size_t shard,
                                      const roce::RoceMessage& msg) {
        handle_response(shard, msg);
      })) {
    return;
  }

  // The original packet is never touched: the primitive works on a
  // conceptual clone-and-truncate, so counting is purely an observation
  // here and the packet continues down the pipeline.
  auto index = config_.sample_fn(ctx.packet);
  if (!index) return;
  ++stats_.sampled_packets;
  record(*index);
}

void StateStorePrimitive::make_eligible(std::uint64_t index, Accumulator& acc) {
  if (acc.queued) return;
  acc.queued = true;
  eligible_[shard_of(index)].push_back(index);
}

void StateStorePrimitive::record(std::uint64_t index) {
  // Counts for a down home shard still accumulate below, but the refusal
  // is visible in per-shard routing stats (issue() routes the healthy
  // ones when they actually go out).
  if (!channels_.is_up(shard_of(index))) (void)channels_.route(index);
  Accumulator& acc = accumulators_[index];
  ++acc.count;
  ++unflushed_total_;
  if (acc.count >= config_.combining_window) make_eligible(index, acc);
  issue_from_accumulators();
}

void StateStorePrimitive::issue_from_accumulators() {
  for (std::size_t shard = 0; shard < channels_.size(); ++shard) {
    // A down shard issues nothing: its counts stay in the accumulators —
    // the window-full backpressure path doing double duty as the
    // failover degraded mode — until the shard is marked up again.
    if (!channels_.is_up(shard)) continue;
    while (inflight_.size(shard) <
               static_cast<std::size_t>(config_.max_outstanding) &&
           !eligible_[shard].empty()) {
      const std::uint64_t index = eligible_[shard].front();
      eligible_[shard].pop_front();
      const auto it = accumulators_.find(index);
      assert(it != accumulators_.end() && it->second.queued);
      const std::uint64_t add = it->second.count;
      accumulators_.erase(it);
      unflushed_total_ -= add;
      if (add > 1) stats_.accumulated += add - 1;
      issue(index, add);
    }
  }
}

void StateStorePrimitive::issue(std::uint64_t index, std::uint64_t add) {
  const auto shard = channels_.route(index);
  assert(shard && "issue() only runs against healthy shards");
  const roce::Psn psn =
      channels_.at(*shard).post_fetch_add(counter_va(index), add);
  inflight_.add(*shard, psn, {index, add});
  ++stats_.fetch_adds_sent;
  stats_.max_outstanding_seen =
      std::max<std::uint64_t>(stats_.max_outstanding_seen,
                              inflight_.size(*shard));
  inflight_.arm();
}

void StateStorePrimitive::handle_response(std::size_t shard,
                                          const roce::RoceMessage& msg) {
  RdmaChannel& channel = channels_.at(shard);
  const roce::Opcode op = msg.opcode();
  if (op == roce::Opcode::kAtomicAcknowledge) {
    if (!inflight_.erase(shard, msg.bth.psn)) {
      ++stats_.duplicate_responses;  // already completed: duplicate/stale
      return;
    }
    ++stats_.acks_received;
    last_progress_[shard] = switch_->simulator().now();
    channels_.note_ok(shard);
    channel.trace_complete(msg.bth.psn);
    issue_from_accumulators();
    return;
  }
  if (op == roce::Opcode::kAcknowledge && msg.aeth && msg.aeth->is_nak()) {
    // A duplicated NAK frame must not double-count naks_received or the
    // shard's health streak, and must not trigger a second repost round.
    if (!channels_.note_nak_once(shard, msg)) {
      ++stats_.duplicate_responses;
      return;
    }
    ++stats_.naks_received;
    const std::string nak_status =
        std::string("nak:") + roce::to_string(msg.aeth->syndrome);
    if (!config_.reliable) {
      // No recovery: this NAK is the op's final word — close the span and
      // reclaim the window slot now; the count it carried is lost.
      channel.trace_complete(msg.bth.psn, nak_status);
      if (const auto f = inflight_.erase(shard, msg.bth.psn)) {
        stats_.counts_in_flight_lost += f->op.add;
        issue_from_accumulators();
      }
      return;
    }

    if (msg.aeth->syndrome == roce::AckSyndrome::kNakInvalidRequest) {
      // A retransmitted atomic whose replay-cache entry has expired: the
      // responder executed it long ago, it just cannot replay the
      // original value. Counting-wise the op is complete.
      if (inflight_.erase(shard, msg.bth.psn)) {
        last_progress_[shard] = switch_->simulator().now();
        channel.trace_complete(msg.bth.psn, nak_status);
        issue_from_accumulators();
      }
      return;
    }
    channel.trace_annotate(msg.bth.psn, "nak",
                           roce::to_string(msg.aeth->syndrome));

    // Sequence-error NAK: everything from the responder's expected PSN
    // (echoed in the NAK) onward was not executed. Retransmit just that
    // suffix of this shard's window, in PSN order, and rate-limit bursts:
    // every out-of-order arrival generates a NAK, and answering each with
    // a full repost storm would feed on itself.
    const sim::Time now = switch_->simulator().now();
    if (now - last_goback_ < kGobackMinInterval) return;
    last_goback_ = now;

    // The expected PSN may be a hole nobody will ever repost — a probe
    // that consumed a PSN while the shard was down, or an op reclaimed
    // at reconnect(). Fill it with a no-op READ so the responder's
    // sequence check can walk past it; the real reposts follow.
    if (inflight_.find(shard, msg.bth.psn) == nullptr) {
      channel.repost_read(channel.config().base_va, 8, msg.bth.psn);
      ++stats_.retransmits;
    }
    replay_window(shard, msg.bth.psn);
  }
}

void StateStorePrimitive::flush() {
  // Sorted drain: eligibility (and the resulting issue order) must not
  // inherit the accumulator map's hash order.
  std::vector<std::uint64_t> indices;
  indices.reserve(accumulators_.size());
  for (const auto& [index, acc] : accumulators_) indices.push_back(index);
  std::sort(indices.begin(), indices.end());
  for (const std::uint64_t i : indices) make_eligible(i, accumulators_.at(i));
  issue_from_accumulators();
}

void StateStorePrimitive::on_health_change(std::size_t shard,
                                           ChannelSet::Health health) {
  if (health == ChannelSet::Health::kUp) {
    if (config_.reliable) {
      // The window was held across the outage: replay it in PSN order so
      // the responder's sequence check walks forward through the stream
      // it remembers. Reclaiming here instead would leave PSN holes that
      // no requester ever retransmits — a wedged strict-RC channel.
      last_progress_[shard] = switch_->simulator().now();
      replay_window(shard);
    }
    // The shard's deferred counts have been accumulating; drain them.
    issue_from_accumulators();
    return;
  }
  // Down transition: best-effort mode reclaims the window, counting the
  // in-flight adds lost. Reliable mode HOLDS it — the ops stay in
  // inflight_ for replay on recovery, or are reclaimed by reconnect()
  // when the server returns as a fresh epoch with an empty replay cache.
  if (!config_.reliable) reclaim_shard(shard);
}

void StateStorePrimitive::replay_window(std::size_t shard,
                                        std::optional<roce::Psn> from) {
  if (inflight_.size(shard) == 0) return;
  last_goback_ = switch_->simulator().now();
  RdmaChannel& channel = channels_.at(shard);
  inflight_.for_each(
      shard,
      [&](const auto& f) {
        channel.repost_fetch_add(counter_va(f.op.index), f.op.add, f.psn);
        ++stats_.retransmits;
      },
      from);
}

void StateStorePrimitive::reconnect(std::size_t shard,
                                    control::RdmaChannelConfig config) {
  // The new NIC epoch never executed this shard's in-flight atomics and
  // its replay cache cannot answer their reposts — those would come back
  // NAK invalid-request and be treated as completed, silently dropping
  // the counts. Reclaim the window first (reliable mode re-accumulates
  // the adds), then swap in the rebuilt channel and let anything
  // reclaimed re-issue immediately if the shard is still routable.
  reclaim_shard(shard);
  channels_.reconnect(shard, std::move(config));
  // The rebuilt channel counts as progress: don't let a stale stamp
  // trigger an immediate replay round against the fresh epoch.
  last_progress_[shard] = switch_->simulator().now();
  issue_from_accumulators();
}

void StateStorePrimitive::reclaim_shard(std::size_t shard) {
  // PSN order: trace completion and accumulator re-arming replay
  // identically run to run, and re-issue follows the original order.
  for (const auto& f : inflight_.take(shard)) {
    if (config_.reliable) {
      Accumulator& acc = accumulators_[f.op.index];
      acc.count += f.op.add;
      unflushed_total_ += f.op.add;
      stats_.failover_reissues += f.op.add;
      make_eligible(f.op.index, acc);
      channels_.at(shard).trace_complete(f.psn, "failover");
    } else {
      stats_.counts_in_flight_lost += f.op.add;
      channels_.at(shard).trace_complete(f.psn, "lost");
    }
  }
}

void StateStorePrimitive::on_timeout() {
  if (config_.reliable) {
    const sim::Time now = switch_->simulator().now();
    // Replay each silent shard's whole window in PSN order (an unordered
    // replay would trip the responder's sequence check and NAK-storm).
    // Progress is judged per shard — a healthy shard's ACK stream must
    // not mask a dead one — and every silent replay round is one timeout
    // observation against that shard, which eventually flips a dead
    // shard's health even in reliable mode.
    for (std::size_t shard = 0; shard < channels_.size(); ++shard) {
      if (inflight_.size(shard) == 0) continue;
      if (now - last_progress_[shard] < config_.retransmit_timeout) continue;
      channels_.note_timeout(shard);
      // Replay even while the shard is marked down: the held window is
      // exactly what the responder's sequence check is waiting on, and
      // the recovery probe can only be answered once the stream has
      // advanced past it.
      replay_window(shard);
    }
    return;
  }
  // Unreliable mode: reclaim leaked window slots so the primitive keeps
  // working; the in-flight counts are simply lost, which is the accuracy
  // degradation the paper's §7 discussion anticipates. Each expiry is a
  // timeout observation against its shard's health, and may trip a down
  // transition that reclaims the rest of the shard (expire() skips those).
  inflight_.expire([&](std::size_t shard, const auto& f) {
    stats_.counts_in_flight_lost += f.op.add;
    channels_.at(shard).trace_complete(f.psn, "lost");
    channels_.note_timeout(shard);
  });
  issue_from_accumulators();
}

}  // namespace xmem::core
