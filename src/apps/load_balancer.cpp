#include "apps/load_balancer.hpp"

#include <cassert>
#include <stdexcept>

#include "core/primitive.hpp"
#include "net/flow.hpp"

namespace xmem::apps {

using switchsim::PipelineContext;

L4LoadBalancer::L4LoadBalancer(switchsim::ProgrammableSwitch& sw,
                               control::RdmaChannelConfig channel,
                               Config config)
    : switch_(&sw), channel_(sw, std::move(channel)), config_(config) {
  n_slots_ = channel_.config().region_bytes / 8;
  if (n_slots_ == 0) {
    throw std::invalid_argument(
        "L4LoadBalancer: region smaller than one 8 B slot");
  }
  sw.add_ingress_stage("l4-load-balancer",
                       [this](PipelineContext& ctx) { on_ingress(ctx); });
}

void L4LoadBalancer::set_backends(std::vector<Backend> backends) {
  for (const Backend& b : backends) {
    if (b.id == 0) {
      throw std::invalid_argument(
          "L4LoadBalancer: backend id 0 is the empty-slot sentinel");
    }
  }
  backends_ = std::move(backends);
  by_id_.clear();
  for (const Backend& b : backends_) by_id_[b.id] = b;
}

std::uint64_t L4LoadBalancer::conn_check(const net::FiveTuple& tuple) const {
  // 48-bit connection check, independent of the slot-index hash.
  return net::flow_hash(tuple, config_.hash_seed ^ 0xa5a5a5a5a5a5a5a5ULL) &
         0xffffffffffffULL;
}

void L4LoadBalancer::on_ingress(PipelineContext& ctx) {
  if (const auto* msg = core::roce_view(ctx)) {
    if (channel_.owns(*msg)) {
      handle_response(*msg);
      ctx.consume();
    }
    return;
  }

  auto tuple = net::extract_five_tuple(ctx.packet);
  if (!tuple || tuple->dst_ip != config_.vip) return;  // not VIP traffic
  if (backends_.empty()) {
    ++stats_.no_backend_drops;
    ctx.drop();
    return;
  }

  const auto key_bytes = tuple->key_bytes();
  const std::string cache_key(reinterpret_cast<const char*>(key_bytes.data()),
                              key_bytes.size());
  if (config_.cache_capacity > 0) {
    auto it = cache_.find(cache_key);
    if (it != cache_.end()) {
      ++stats_.cache_hits;
      net::Packet packet = std::move(ctx.packet);
      ctx.consume();
      forward_to(std::move(packet), it->second);
      return;
    }
  }

  // New (or un-cached) flow: try to claim its connection slot with CAS.
  // The backend choice for a *new* flow comes from the current pool;
  // if the slot is already owned, the CAS response tells us the sticky
  // assignment instead.
  const std::uint64_t slot =
      net::flow_hash(*tuple, config_.hash_seed) % n_slots_;
  const std::uint64_t check = conn_check(*tuple);
  const Backend& chosen = backends_[static_cast<std::size_t>(
      net::flow_hash(*tuple, config_.hash_seed ^ backends_.size()) %
      backends_.size())];

  const roce::Psn psn = channel_.post_compare_swap(
      channel_.config().base_va + slot * 8, 0, pack(check, chosen.id));
  Pending pending;
  pending.packet = std::move(ctx.packet);
  pending.check = check;
  pending.chosen_backend_id = chosen.id;
  pending.cache_key.assign(key_bytes.begin(), key_bytes.end());
  pending_.emplace(psn, std::move(pending));
  ctx.consume();
}

void L4LoadBalancer::handle_response(const roce::RoceMessage& msg) {
  if (msg.opcode() != roce::Opcode::kAtomicAcknowledge) return;
  auto it = pending_.find(msg.bth.psn);
  if (it == pending_.end()) {
    ++stats_.stale_responses;
    return;
  }
  Pending pending = std::move(it->second);
  pending_.erase(it);
  assert(msg.atomic_ack.has_value());
  const std::uint64_t prior = msg.atomic_ack->original_value;

  std::uint16_t backend_id = 0;
  if (prior == 0) {
    // CAS won: the slot now records our choice.
    ++stats_.new_connections;
    backend_id = pending.chosen_backend_id;
  } else if (check_of(prior) == pending.check) {
    // Existing connection: stick to its recorded backend.
    ++stats_.resumed;
    backend_id = backend_of(prior);
  } else {
    // Someone else's flow owns this slot (index collision).
    ++stats_.collision_drops;
    return;
  }

  if (!by_id_.contains(backend_id)) {
    // Sticky assignment references a backend that has been removed from
    // the pool; without per-connection migration this flow breaks —
    // exactly the consistency problem SilkRoad is about.
    ++stats_.no_backend_drops;
    return;
  }

  if (config_.cache_capacity > 0) {
    if (cache_.size() >= config_.cache_capacity) {
      cache_.erase(cache_fifo_.front());
      cache_fifo_.pop_front();
    }
    const std::string key(reinterpret_cast<const char*>(
                              pending.cache_key.data()),
                          pending.cache_key.size());
    if (cache_.emplace(key, backend_id).second) cache_fifo_.push_back(key);
  }

  forward_to(std::move(pending.packet), backend_id);
}

void L4LoadBalancer::forward_to(net::Packet&& packet,
                                std::uint16_t backend_id) {
  auto it = by_id_.find(backend_id);
  if (it == by_id_.end()) {
    ++stats_.no_backend_drops;  // cached id whose backend vanished
    return;
  }
  const Backend& backend = it->second;
  const auto bytes = packet.mutable_bytes();
  const auto& mac = backend.mac.octets();
  std::copy(mac.begin(), mac.end(), bytes.begin());
  net::rewrite_dst_ip(packet, backend.ip);
  ++per_backend_packets_[backend_id];
  switch_->inject(std::move(packet), backend.switch_port);
}

}  // namespace xmem::apps
