// Exact-match tables, with a capacity limit that models the scarce
// on-chip SRAM the paper's whole premise revolves around.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "switchsim/action.hpp"

namespace xmem::switchsim {

using Key = std::vector<std::uint8_t>;

/// Exact-match table (hash table in switch SRAM).
class ExactMatchTable {
 public:
  /// `capacity` models the SRAM budget: inserts beyond it fail, which is
  /// precisely the condition that pushes traffic to the remote table.
  explicit ExactMatchTable(std::size_t capacity = SIZE_MAX)
      : capacity_(capacity) {}

  /// Returns false when the table is full (and does not insert).
  bool insert(Key key, Action action);

  /// Returns nullptr on miss.
  [[nodiscard]] const Action* lookup(std::span<const std::uint8_t> key) const;

  bool erase(std::span<const std::uint8_t> key);
  void clear() { entries_.clear(); }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool full() const { return entries_.size() >= capacity_; }

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  std::unordered_map<Key, Action, KeyHash> entries_;
  std::size_t capacity_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace xmem::switchsim
