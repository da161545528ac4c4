#include "core/channel_set.hpp"

#include <stdexcept>

#include "sim/log.hpp"

namespace xmem::core {

ChannelSet::ChannelSet(switchsim::ProgrammableSwitch& sw,
                       std::vector<control::RdmaChannelConfig> configs)
    : ChannelSet(sw, std::move(configs), Config{}) {}

ChannelSet::ChannelSet(switchsim::ProgrammableSwitch& sw,
                       std::vector<control::RdmaChannelConfig> configs,
                       Config config)
    : switch_(&sw), config_(config) {
  if (configs.empty()) {
    throw std::invalid_argument("ChannelSet: needs at least one channel");
  }
  if (config_.down_after_timeouts <= 0 || config_.down_after_naks <= 0) {
    throw std::invalid_argument(
        "ChannelSet: down_after_timeouts and down_after_naks must be > 0");
  }
  shards_.reserve(configs.size());
  for (auto& cfg : configs) {
    Shard shard;
    shard.channel = std::make_unique<RdmaChannel>(sw, std::move(cfg));
    shards_.push_back(std::move(shard));
  }
}

std::size_t ChannelSet::up_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard.health == Health::kUp;
  return n;
}

std::optional<std::size_t> ChannelSet::route(std::uint64_t key) {
  const std::size_t s = home_shard(key);
  if (shards_[s].health == Health::kDown) {
    ++shards_[s].stats.routed_while_down;
    return std::nullopt;
  }
  ++shards_[s].stats.ops_routed;
  return s;
}

std::size_t ChannelSet::slots_per_shard(std::size_t slot_bytes) const {
  const std::size_t region_bytes = at(0).config().region_bytes;
  for (const Shard& shard : shards_) {
    const control::RdmaChannelConfig& cfg = shard.channel->config();
    if (cfg.region_bytes != region_bytes) {
      throw std::invalid_argument("ChannelSet: regions must be equally sized");
    }
    if (slot_bytes > cfg.path_mtu) {
      throw std::invalid_argument(
          "ChannelSet: a slot must fit one path MTU");
    }
  }
  if (slot_bytes == 0 || slot_bytes > region_bytes) {
    throw std::invalid_argument(
        "ChannelSet: every shard must hold at least one slot");
  }
  return region_bytes / slot_bytes;
}

std::optional<std::size_t> ChannelSet::owner_of(
    const roce::RoceMessage& msg) const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].channel->owns(msg)) return i;
  }
  return std::nullopt;
}

void ChannelSet::note_ok(std::size_t shard) {
  Shard& s = shards_[shard];
  s.consecutive_timeouts = 0;
  s.consecutive_naks = 0;
  if (s.health == Health::kDown) mark_up(shard);
}

void ChannelSet::note_timeout(std::size_t shard) {
  Shard& s = shards_[shard];
  ++s.stats.timeouts;
  ++s.consecutive_timeouts;
  if (s.health == Health::kUp &&
      s.consecutive_timeouts >= config_.down_after_timeouts) {
    mark_down(shard);
  }
}

void ChannelSet::note_nak(std::size_t shard, roce::AckSyndrome syndrome) {
  Shard& s = shards_[shard];
  ++s.stats.naks;
  s.consecutive_timeouts = 0;  // a NAK is still a response: the server lives
  const bool broken = syndrome == roce::AckSyndrome::kNakRemoteAccessError ||
                      syndrome == roce::AckSyndrome::kNakRemoteOpError;
  if (!broken) {
    s.consecutive_naks = 0;
    if (s.health == Health::kDown) mark_up(shard);
    return;
  }
  ++s.consecutive_naks;
  if (s.health == Health::kUp &&
      s.consecutive_naks >= config_.down_after_naks) {
    mark_down(shard);
  }
}

bool ChannelSet::note_nak_once(std::size_t shard,
                               const roce::RoceMessage& msg) {
  if (!nak_dedup_.first_time(DedupWindow::key(
          shard, msg.bth.psn, msg.aeth->msn,
          static_cast<std::uint8_t>(msg.aeth->syndrome)))) {
    return false;
  }
  note_nak(shard, msg.aeth->syndrome);
  return true;
}

bool ChannelSet::maybe_probe_response(std::size_t shard,
                                      const roce::RoceMessage& msg) {
  Shard& s = shards_[shard];
  if (s.probe_psns.empty() || !roce::is_read_response(msg.opcode())) {
    return false;
  }
  auto it = s.probe_psns.find(msg.bth.psn);
  if (it == s.probe_psns.end()) return false;
  s.probe_psns.erase(it);
  note_ok(shard);
  return true;
}

bool ChannelSet::maybe_cnp(std::size_t shard, const roce::RoceMessage& msg) {
  if (!roce::is_cnp(msg.opcode())) return false;
  shards_[shard].channel->on_cnp();
  return true;
}

void ChannelSet::enable_congestion_control(const DcqcnConfig& config) {
  for (auto& shard : shards_) {
    shard.channel->enable_congestion_control(config);
  }
}

void ChannelSet::reconnect(std::size_t shard,
                           control::RdmaChannelConfig config) {
  Shard& s = shards_[shard];
  s.channel->reconfigure(std::move(config));
  s.probe_psns.clear();
  s.consecutive_timeouts = 0;
  s.consecutive_naks = 0;
  ++s.epoch;
  XMEM_LOG(Info, switch_->simulator().now(), "channel-set")
      << "shard " << shard << " reconnected (fresh QPN/PSN/rkey, epoch "
      << s.epoch << ")";
}

void ChannelSet::mark_down(std::size_t shard) {
  Shard& s = shards_[shard];
  s.health = Health::kDown;
  s.down_since = switch_->simulator().now();
  ++s.stats.down_transitions;
  XMEM_LOG(Info, switch_->simulator().now(), "channel-set")
      << "shard " << shard << " marked DOWN";
  schedule_probe();
  if (flight_recorder_) {
    flight_recorder_->record(telemetry::FlightEventKind::kChannelDown,
                             static_cast<std::uint16_t>(shard), 0,
                             static_cast<std::int64_t>(s.consecutive_timeouts),
                             static_cast<std::int64_t>(s.consecutive_naks),
                             "shard down");
  }
  if (health_fn_) health_fn_(shard, Health::kDown);
}

void ChannelSet::mark_up(std::size_t shard) {
  Shard& s = shards_[shard];
  s.health = Health::kUp;
  s.last_outage = switch_->simulator().now() - s.down_since;
  ++s.stats.up_transitions;
  s.probe_psns.clear();
  XMEM_LOG(Info, switch_->simulator().now(), "channel-set")
      << "shard " << shard << " marked UP after "
      << s.last_outage / sim::kMicrosecond << " us down";
  if (flight_recorder_) {
    flight_recorder_->record(telemetry::FlightEventKind::kChannelUp,
                             static_cast<std::uint16_t>(shard), 0,
                             s.last_outage / sim::kMicrosecond, 0,
                             "shard up");
  }
  if (health_fn_) health_fn_(shard, Health::kUp);
}

void ChannelSet::schedule_probe() {
  if (probe_pending_ || config_.probe_interval <= 0) return;
  probe_pending_ = true;
  switch_->simulator().schedule_in(config_.probe_interval,
                                   [this]() { on_probe_timer(); });
}

void ChannelSet::on_probe_timer() {
  probe_pending_ = false;
  bool any_down = false;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    if (s.health != Health::kDown) continue;
    any_down = true;
    if (s.probe_psns.empty()) {
      const roce::Psn psn = s.channel->post_read(
          s.channel->config().base_va, config_.probe_bytes);
      // Probe spans would leak if the shard never answers; close them at
      // injection and let health (not the tracer) track the outcome.
      s.channel->trace_complete(psn, "probe");
      s.probe_psns.insert(psn);
    } else {
      // Retransmit the outstanding probe rather than posting a fresh
      // one: on a strict-RC channel every lost probe would otherwise
      // leave a sequence hole that no requester ever fills, wedging the
      // stream until PSN wraparound. (max_tracked_probe_psns bounds the
      // set as a backstop; with retransmission it never exceeds one.)
      if (s.probe_psns.size() > config_.max_tracked_probe_psns) {
        s.probe_psns.clear();
        continue;
      }
      s.channel->repost_read(s.channel->config().base_va,
                             config_.probe_bytes, *s.probe_psns.begin());
    }
    ++s.stats.probes_sent;
  }
  if (any_down) schedule_probe();
}

sim::Time ChannelSet::outage(std::size_t shard) const {
  const Shard& s = shards_[shard];
  if (s.health == Health::kDown) {
    return switch_->simulator().now() - s.down_since;
  }
  return s.last_outage;
}

void ChannelSet::attach_telemetry(telemetry::MetricsRegistry* registry,
                                  telemetry::OpTracer* tracer,
                                  const std::string& prefix) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::string shard_prefix = prefix + "/shard" + std::to_string(i);
    shards_[i].channel->attach_telemetry(registry, tracer, shard_prefix);
    if (registry == nullptr) continue;
    ShardStats* st = &shards_[i].stats;
    auto counter = [&](const char* field, const std::uint64_t* value,
                       const char* unit) {
      registry->register_counter(
          shard_prefix + "/" + field,
          [value]() { return static_cast<std::int64_t>(*value); }, unit);
    };
    counter("ops_routed", &st->ops_routed, "ops");
    counter("routed_while_down", &st->routed_while_down, "ops");
    counter("timeouts", &st->timeouts, "ops");
    counter("naks", &st->naks, "ops");
    counter("down_transitions", &st->down_transitions, "transitions");
    counter("up_transitions", &st->up_transitions, "transitions");
    counter("probes_sent", &st->probes_sent, "ops");
    registry->register_gauge(
        shard_prefix + "/health",
        [this, i]() { return is_up(i) ? 1.0 : 0.0; }, "bool");
    registry->register_gauge(
        shard_prefix + "/failover_duration",
        [this, i]() { return static_cast<double>(outage(i)); }, "ps");
    registry->register_gauge(
        shard_prefix + "/epoch",
        [this, i]() { return static_cast<double>(epoch(i)); }, "generation");
  }
  if (registry != nullptr) {
    registry->register_gauge(
        prefix + "/up_shards",
        [this]() { return static_cast<double>(up_count()); }, "shards");
  }
}

}  // namespace xmem::core
