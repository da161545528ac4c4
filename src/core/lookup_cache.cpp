#include "core/lookup_cache.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace xmem::core {

namespace {

std::size_t protected_capacity_of(const LookupCache::Config& config) {
  if (config.policy != LookupCache::Policy::kLfu || config.capacity == 0) {
    return 0;
  }
  // Probation keeps at least one slot so fresh entries always have
  // somewhere to land (and a victim always exists there first).
  return std::min(static_cast<std::size_t>(
                      static_cast<double>(config.capacity) *
                      LookupCache::kProtectedFraction),
                  config.capacity - 1);
}

}  // namespace

void LookupCache::List::push_back(Node& n) {
  n.prev = tail;
  n.next = nullptr;
  if (tail != nullptr) {
    tail->next = &n;
  } else {
    head = &n;
  }
  tail = &n;
  ++count;
}

void LookupCache::List::unlink(Node& n) {
  if (n.prev != nullptr) {
    n.prev->next = n.next;
  } else {
    head = n.next;
  }
  if (n.next != nullptr) {
    n.next->prev = n.prev;
  } else {
    tail = n.prev;
  }
  n.prev = nullptr;
  n.next = nullptr;
  --count;
}

void LookupCache::List::move_to_back(Node& n) {
  if (tail == &n) return;
  unlink(n);
  push_back(n);
}

std::string_view LookupCache::policy_name(Policy policy) {
  switch (policy) {
    case Policy::kFifo:
      return "fifo";
    case Policy::kLru:
      return "lru";
    case Policy::kLfu:
      return "lfu";
  }
  return "?";
}

LookupCache::LookupCache(Config config)
    : config_(config),
      protected_capacity_(protected_capacity_of(config)),
      reorder_on_hit_(config.policy != Policy::kFifo) {
  if (config_.negative_ttl < 0) {
    throw std::invalid_argument("LookupCache: negative_ttl must be >= 0");
  }
  if (config_.capacity > 0) map_.reserve(config_.capacity);
}

void LookupCache::touch(Node& node) {
  if (!reorder_on_hit_) return;
  if (node.segment == 1) {
    protected_.move_to_back(node);
    return;
  }
  if (protected_capacity_ == 0) {
    // kLru, or kLfu without a protected segment: recency in probation.
    probation_.move_to_back(node);
    return;
  }
  // kLfu: a hit proves the entry; protected overflow demotes its LRU end
  // back to probation instead of evicting outright.
  probation_.unlink(node);
  node.segment = 1;
  protected_.push_back(node);
  ++stats_.promotions;
  while (protected_.count > protected_capacity_) {
    Node& demoted = *protected_.head;
    protected_.unlink(demoted);
    demoted.segment = 0;
    probation_.push_back(demoted);
  }
}

LookupCache::Node* LookupCache::victim() const {
  // Victims come from probation while it has anyone, so one-hit wonders
  // cannot displace the protected working set.
  return probation_.head != nullptr ? probation_.head : protected_.head;
}

std::optional<LookupCache::Hit> LookupCache::lookup(const Key& key,
                                                    sim::Time now) {
  if (!enabled()) return std::nullopt;
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  Node& node = it->second;
  if (node.negative && config_.negative_ttl > 0 &&
      now - node.filled_at >= config_.negative_ttl) {
    ++stats_.negative_expired;
    ++stats_.misses;
    erase_node(node);
    return std::nullopt;
  }
  touch(node);
  Hit hit;
  hit.negative = node.negative;
  hit.action = node.negative ? nullptr : &node.action;
  hit.shard = node.shard;
  hit.epoch = node.epoch;
  if (node.negative) {
    ++stats_.negative_hits;
  } else {
    ++stats_.hits;
  }
  return hit;
}

LookupCache::Node& LookupCache::fill_slot(const Key& key, bool negative,
                                          std::uint32_t shard,
                                          std::uint32_t epoch,
                                          sim::Time now) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    if (map_.size() >= config_.capacity) {
      Node* old = victim();
      assert(old != nullptr && "full cache must have a victim");
      ++stats_.evictions;
      erase_node(*old);
    }
    it = map_.emplace(key, Node{}).first;
    Node& node = it->second;
    node.key = &it->first;
    node.negative = negative;
    node.shard = shard;
    node.epoch = epoch;
    node.filled_at = now;
    probation_.push_back(node);
    return node;
  }
  // In-place refill: keep the node's position fresh via the hit path
  // (a refill is evidence of use, whatever the policy).
  Node& node = it->second;
  node.negative = negative;
  node.shard = shard;
  node.epoch = epoch;
  node.filled_at = now;
  touch(node);
  return node;
}

void LookupCache::insert(const Key& key, const switchsim::Action& action,
                         std::uint32_t shard, std::uint32_t epoch,
                         sim::Time now) {
  if (!enabled()) return;
  const bool existed = map_.contains(key);
  Node& node = fill_slot(key, /*negative=*/false, shard, epoch, now);
  node.action = action;
  if (existed) {
    ++stats_.refreshes;
  } else {
    ++stats_.inserts;
  }
}

void LookupCache::insert_negative(const Key& key, std::uint32_t shard,
                                  std::uint32_t epoch, sim::Time now) {
  if (!enabled() || config_.negative_ttl <= 0) return;
  fill_slot(key, /*negative=*/true, shard, epoch, now);
  ++stats_.negative_inserts;
}

bool LookupCache::invalidate(const Key& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  ++stats_.invalidations;
  erase_node(it->second);
  return true;
}

void LookupCache::erase_node(Node& node) {
  (node.segment == 1 ? protected_ : probation_).unlink(node);
  map_.erase(*node.key);  // invalidates `node`
}

void LookupCache::attach_telemetry(telemetry::MetricsRegistry* registry,
                                   const std::string& prefix) {
  if (registry == nullptr) return;
  registry->register_counter(prefix + "/hits", &stats_.hits, "lookups");
  registry->register_counter(prefix + "/misses", &stats_.misses, "lookups");
  registry->register_counter(prefix + "/inserts", &stats_.inserts, "entries");
  registry->register_counter(prefix + "/refreshes",
                             &stats_.refreshes, "entries");
  registry->register_counter(prefix + "/evictions",
                             &stats_.evictions, "entries");
  registry->register_counter(prefix + "/invalidations",
                             &stats_.invalidations, "entries");
  registry->register_counter(prefix + "/negative_hits",
                             &stats_.negative_hits, "lookups");
  registry->register_counter(prefix + "/negative_inserts",
                             &stats_.negative_inserts, "entries");
  registry->register_counter(prefix + "/negative_expired",
                             &stats_.negative_expired, "entries");
  registry->register_counter(prefix + "/promotions",
                             &stats_.promotions, "entries");
  registry->register_gauge(
      prefix + "/occupancy",
      [this]() { return static_cast<double>(map_.size()); }, "entries");
  registry->register_gauge(
      prefix + "/capacity",
      [this]() { return static_cast<double>(config_.capacity); }, "entries");
}

}  // namespace xmem::core
