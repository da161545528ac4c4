#include "core/lookup_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <optional>
#include <string>
#include <vector>

#include "sim/env.hpp"

namespace xmem::core {

namespace {

/// Minimal intrusive FIFO/LRU list over LookupCache nodes. front() is
/// the eviction end; push_back() is the "most recently placed" end.
template <typename NodeT>
struct IntrusiveList {
  NodeT* head = nullptr;
  NodeT* tail = nullptr;
  std::size_t count = 0;

  [[nodiscard]] bool empty() const { return head == nullptr; }
  [[nodiscard]] NodeT* front() const { return head; }

  void push_back(NodeT& n) {
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

  void unlink(NodeT& n) {
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

  void move_to_back(NodeT& n) {
    if (tail == &n) return;
    unlink(n);
    push_back(n);
  }
};

}  // namespace

/// FIFO: one queue in insertion order; hits change nothing.
class LookupCache::FifoPolicy final : public LookupCache::EvictionPolicy {
 public:
  void on_insert(Node& node) override { order_.push_back(node); }
  void on_hit(Node&) override {}
  void on_erase(Node& node) override { order_.unlink(node); }
  [[nodiscard]] Node* victim() override { return order_.front(); }

 private:
  IntrusiveList<Node> order_;
};

/// LRU: one queue in recency order; a hit refreshes to the back.
class LookupCache::LruPolicy final : public LookupCache::EvictionPolicy {
 public:
  void on_insert(Node& node) override { order_.push_back(node); }
  void on_hit(Node& node) override { order_.move_to_back(node); }
  void on_erase(Node& node) override { order_.unlink(node); }
  [[nodiscard]] Node* victim() override { return order_.front(); }

 private:
  IntrusiveList<Node> order_;
};

/// Segmented LFU (SLRU): probation for new entries, protected for
/// entries that proved themselves with a hit. Victims come from
/// probation while it has anyone, so one-hit wonders cannot displace
/// the protected working set; protected overflow demotes its LRU end
/// back to probation instead of evicting outright.
class LookupCache::SlfuPolicy final : public LookupCache::EvictionPolicy {
 public:
  SlfuPolicy(std::size_t protected_capacity, std::uint64_t* promotions)
      : protected_capacity_(protected_capacity), promotions_(promotions) {}

  void on_insert(Node& node) override {
    node.segment = 0;
    probation_.push_back(node);
  }

  void on_hit(Node& node) override {
    if (node.segment == 1) {
      protected_.move_to_back(node);
      return;
    }
    if (protected_capacity_ == 0) {
      // No protected segment (capacity 1): recency within probation.
      probation_.move_to_back(node);
      return;
    }
    probation_.unlink(node);
    node.segment = 1;
    protected_.push_back(node);
    ++*promotions_;
    while (protected_.count > protected_capacity_) {
      Node& demoted = *protected_.front();
      protected_.unlink(demoted);
      demoted.segment = 0;
      probation_.push_back(demoted);
    }
  }

  void on_erase(Node& node) override {
    (node.segment == 1 ? protected_ : probation_).unlink(node);
  }

  [[nodiscard]] Node* victim() override {
    return probation_.empty() ? protected_.front() : probation_.front();
  }

 private:
  IntrusiveList<Node> probation_;
  IntrusiveList<Node> protected_;
  std::size_t protected_capacity_;
  std::uint64_t* promotions_;
};

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

std::optional<LookupCache::Policy> LookupCache::parse_policy(
    std::string_view name) {
  std::string lowered(name);
  for (char& c : lowered) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lowered == "fifo") return Policy::kFifo;
  if (lowered == "lru") return Policy::kLru;
  if (lowered == "lfu" || lowered == "slfu") return Policy::kLfu;
  return std::nullopt;
}

LookupCache::Policy LookupCache::policy_from_env(Policy fallback) {
  const std::optional<std::string> value = sim::env("XMEM_CACHE_POLICY");
  if (!value.has_value()) return fallback;
  return parse_policy(*value).value_or(fallback);
}

LookupCache::LookupCache(Config config) : config_(config) {
  if (config_.lfu_protected_fraction < 0.0) config_.lfu_protected_fraction = 0.0;
  if (config_.lfu_protected_fraction > 1.0) config_.lfu_protected_fraction = 1.0;
  eviction_ = make_policy();
  if (config_.capacity > 0) map_.reserve(config_.capacity);
}

LookupCache::~LookupCache() = default;

std::unique_ptr<LookupCache::EvictionPolicy> LookupCache::make_policy() {
  switch (config_.policy) {
    case Policy::kFifo:
      return std::make_unique<FifoPolicy>();
    case Policy::kLru:
      return std::make_unique<LruPolicy>();
    case Policy::kLfu: {
      // Probation keeps at least one slot so fresh entries always have
      // somewhere to land (and a victim always exists there first).
      std::size_t protected_cap = static_cast<std::size_t>(
          static_cast<double>(config_.capacity) *
          config_.lfu_protected_fraction);
      if (config_.capacity > 0 && protected_cap >= config_.capacity) {
        protected_cap = config_.capacity - 1;
      }
      return std::make_unique<SlfuPolicy>(protected_cap,
                                          &stats_.promotions);
    }
  }
  return std::make_unique<LruPolicy>();
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
  ++node.freq;
  eviction_->on_hit(node);
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
      Node* victim = eviction_->victim();
      assert(victim != nullptr && "full cache must have a victim");
      ++stats_.evictions;
      erase_node(*victim);
    }
    it = map_.emplace(key, Node{}).first;
    Node& node = it->second;
    node.key = &it->first;
    node.negative = negative;
    node.shard = shard;
    node.epoch = epoch;
    node.filled_at = now;
    eviction_->on_insert(node);
    return node;
  }
  // In-place refill: keep the node's position fresh via the hit path
  // (a refill is evidence of use, whatever the policy).
  Node& node = it->second;
  node.negative = negative;
  node.shard = shard;
  node.epoch = epoch;
  node.filled_at = now;
  eviction_->on_hit(node);
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

std::size_t LookupCache::invalidate_shard(std::uint32_t shard) {
  std::size_t removed = 0;
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->second.shard == shard) {
      eviction_->on_erase(it->second);
      it = map_.erase(it);
      ++stats_.invalidations;
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

void LookupCache::clear() {
  stats_.invalidations += map_.size();
  // Drain in sorted key order: the eviction policy observes every
  // on_erase, so its internal state must not inherit hash order.
  std::vector<const Key*> keys;
  keys.reserve(map_.size());
  for (auto& [key, node] : map_) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(), [](const Key* a, const Key* b) {
    return std::ranges::lexicographical_compare(*a, *b);
  });
  for (const Key* key : keys) eviction_->on_erase(map_.at(*key));
  map_.clear();
}

void LookupCache::erase_node(Node& node) {
  eviction_->on_erase(node);
  map_.erase(*node.key);  // invalidates `node`
}

void LookupCache::attach_telemetry(telemetry::MetricsRegistry* registry,
                                   const std::string& prefix) {
  if (registry == nullptr) return;
  auto counter = [&](const char* field, const std::uint64_t* value,
                     const char* unit) {
    registry->register_counter(
        prefix + "/" + field,
        [value]() { return static_cast<std::int64_t>(*value); }, unit);
  };
  counter("hits", &stats_.hits, "lookups");
  counter("misses", &stats_.misses, "lookups");
  counter("inserts", &stats_.inserts, "entries");
  counter("refreshes", &stats_.refreshes, "entries");
  counter("evictions", &stats_.evictions, "entries");
  counter("invalidations", &stats_.invalidations, "entries");
  counter("negative_hits", &stats_.negative_hits, "lookups");
  counter("negative_inserts", &stats_.negative_inserts, "entries");
  counter("negative_expired", &stats_.negative_expired, "entries");
  counter("promotions", &stats_.promotions, "entries");
  registry->register_gauge(
      prefix + "/occupancy",
      [this]() { return static_cast<double>(map_.size()); }, "entries");
  registry->register_gauge(
      prefix + "/capacity",
      [this]() { return static_cast<double>(config_.capacity); }, "entries");
}

}  // namespace xmem::core
