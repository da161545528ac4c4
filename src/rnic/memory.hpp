// RDMA memory regions: registered DRAM a remote peer may address by
// {virtual address, rkey}, subject to access-right and bounds checks —
// the checks a real RNIC performs before any one-sided operation.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

namespace xmem::rnic {

/// Remote-access rights, OR-able.
enum class Access : std::uint8_t {
  kNone = 0,
  kRemoteRead = 1,
  kRemoteWrite = 2,
  kRemoteAtomic = 4,
  kAll = 7,
};

[[nodiscard]] constexpr Access operator|(Access a, Access b) {
  return static_cast<Access>(static_cast<std::uint8_t>(a) |
                             static_cast<std::uint8_t>(b));
}
[[nodiscard]] constexpr bool has_access(Access granted, Access wanted) {
  return (static_cast<std::uint8_t>(granted) &
          static_cast<std::uint8_t>(wanted)) ==
         static_cast<std::uint8_t>(wanted);
}

/// Outcome of a remote-memory access check.
enum class MemStatus : std::uint8_t {
  kOk,
  kBadRkey,
  kOutOfBounds,
  kAccessDenied,
  kMisaligned,  // atomics must target 8-byte-aligned addresses
};

/// One registered region: owns its backing bytes, a private anonymous
/// mapping the kernel zero-fills one page at a time on first touch, so
/// registering is O(1) and host RAM follows the pages a run touches.
/// One PROT_NONE guard page follows the last data page, so a write past
/// the end faults instead of landing in unrelated memory.
class MemoryRegion {
 public:
  /// Throws std::bad_alloc if the mapping cannot be created.
  MemoryRegion(std::uint64_t base_va, std::uint32_t rkey, std::size_t length,
               Access access);
  ~MemoryRegion();
  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  [[nodiscard]] std::uint64_t base_va() const { return base_va_; }
  [[nodiscard]] std::uint32_t rkey() const { return rkey_; }
  [[nodiscard]] std::size_t length() const { return length_; }
  [[nodiscard]] Access access() const { return access_; }
  /// An invalidated region (after Rnic::restart) keeps its bytes but
  /// fails every remote-access check until re-registered.
  [[nodiscard]] bool valid() const { return valid_; }

  [[nodiscard]] bool contains(std::uint64_t va, std::size_t len) const {
    return va >= base_va_ && va + len <= base_va_ + length_ &&
           va + len >= va;  // overflow guard
  }

  /// Raw view for the owning host (local access needs no rights).
  [[nodiscard]] std::span<std::uint8_t> bytes() { return {data_, length_}; }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const {
    return {data_, length_};
  }

  /// Checked view of [va, va+len). Caller must have verified bounds.
  [[nodiscard]] std::span<std::uint8_t> window(std::uint64_t va,
                                               std::size_t len) {
    return bytes().subspan(static_cast<std::size_t>(va - base_va_), len);
  }

 private:
  friend class MemoryManager;

  std::uint64_t base_va_;
  std::uint32_t rkey_;
  Access access_;
  bool valid_ = true;
  std::size_t length_;
  std::size_t mapped_bytes_ = 0;  // whole data pages plus the guard page
  std::uint8_t* data_ = nullptr;
};

/// The RNIC's table of registered regions.
class MemoryManager {
 public:
  /// Register a fresh, all-zero region. Base virtual addresses are
  /// assigned sequentially in a private 1 GiB-aligned arena so distinct
  /// regions never overlap, and rkeys are never reused. Throws
  /// std::invalid_argument if `length` is 0.
  MemoryRegion& register_region(std::size_t length, Access access);

  /// rkey -> region, or nullptr.
  [[nodiscard]] MemoryRegion* find(std::uint32_t rkey);
  [[nodiscard]] const MemoryRegion* find(std::uint32_t rkey) const;

  /// Model an RNIC reset: every region's rkey stops validating remote
  /// accesses until reregister() hands out a fresh one. Host DRAM (the
  /// backing bytes) survives — only the NIC's translation state is lost.
  void invalidate_all();

  /// Re-register an invalidated region under a fresh rkey, preserving
  /// its bytes, base VA and access rights. Returns nullptr if `old_rkey`
  /// is unknown.
  [[nodiscard]] MemoryRegion* reregister(std::uint32_t old_rkey);

  /// Full remote-access check for an operation of `len` bytes at `va`.
  [[nodiscard]] MemStatus check(std::uint32_t rkey, std::uint64_t va,
                                std::size_t len, Access wanted) const;

  [[nodiscard]] std::size_t region_count() const { return regions_.size(); }
  [[nodiscard]] std::size_t total_registered_bytes() const {
    return total_bytes_;
  }

 private:
  static constexpr std::uint64_t kArenaBase = 0x4000'0000'0000ULL;
  static constexpr std::uint64_t kArenaStride = 1ULL << 30;

  std::unordered_map<std::uint32_t, std::unique_ptr<MemoryRegion>> regions_;
  std::uint32_t next_rkey_ = 0x1000;
  std::uint64_t next_arena_slot_ = 0;
  std::size_t total_bytes_ = 0;
};

/// Little-endian 64-bit load/store — counters live in server DRAM with
/// x86 byte order, which is what the control plane reads back.
[[nodiscard]] std::uint64_t load_le64(std::span<const std::uint8_t> bytes);
void store_le64(std::span<std::uint8_t> bytes, std::uint64_t value);

}  // namespace xmem::rnic
