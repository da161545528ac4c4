#include "switchsim/table.hpp"

#include "net/flow.hpp"

namespace xmem::switchsim {

std::size_t ExactMatchTable::KeyHash::operator()(const Key& k) const noexcept {
  return static_cast<std::size_t>(net::fnv1a(k));
}

bool ExactMatchTable::insert(Key key, Action action) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second = action;  // update in place never consumes capacity
    return true;
  }
  if (entries_.size() >= capacity_) return false;
  entries_.emplace(std::move(key), action);
  return true;
}

const Action* ExactMatchTable::lookup(
    std::span<const std::uint8_t> key) const {
  // Transparent lookup without allocating would need heterogeneous keys;
  // a small copy is fine at simulation rates.
  const Key k(key.begin(), key.end());
  auto it = entries_.find(k);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

bool ExactMatchTable::erase(std::span<const std::uint8_t> key) {
  const Key k(key.begin(), key.end());
  return entries_.erase(k) > 0;
}

}  // namespace xmem::switchsim
