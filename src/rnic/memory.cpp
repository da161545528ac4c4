#include "rnic/memory.hpp"

#include <sanitizer/asan_interface.h>  // no-op macros without ASan
#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <limits>
#include <new>
#include <stdexcept>

namespace xmem::rnic {

namespace {

std::size_t page_bytes() {
  return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace

MemoryRegion::MemoryRegion(std::uint64_t base_va, std::uint32_t rkey,
                           std::size_t length, Access access)
    : base_va_(base_va), rkey_(rkey), access_(access), length_(length) {
  const std::size_t page = page_bytes();
  if (length > std::numeric_limits<std::size_t>::max() - 2 * page) {
    throw std::bad_alloc();
  }
  const std::size_t data_pages_bytes = (length + page - 1) / page * page;
  mapped_bytes_ = data_pages_bytes + page;
  // MAP_NORESERVE: no swap is set aside, so a host that runs out of RAM
  // fails on the first touch of a page, not here.
  void* map = mmap(nullptr, mapped_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<std::uint8_t*>(map);
  if (mprotect(data_ + data_pages_bytes, page, PROT_NONE) != 0) {
    munmap(map, mapped_bytes_);
    throw std::bad_alloc();
  }
  // The guard page catches overruns of a whole page; under ASan the
  // slack between the declared end and the guard is poisoned too, so
  // every byte past the end is caught, as a heap redzone would.
  ASAN_POISON_MEMORY_REGION(data_ + length_, data_pages_bytes - length_);
}

MemoryRegion::~MemoryRegion() {
  ASAN_UNPOISON_MEMORY_REGION(data_ + length_,
                              mapped_bytes_ - page_bytes() - length_);
  munmap(data_, mapped_bytes_);
}

MemoryRegion& MemoryManager::register_region(std::size_t length,
                                             Access access) {
  if (length == 0) {
    throw std::invalid_argument("register_region: length must be > 0");
  }
  // Each region gets its own gigabyte-aligned arena slot; regions bigger
  // than one slot consume several.
  const std::uint64_t slots = (length + kArenaStride - 1) / kArenaStride;
  const std::uint64_t base = kArenaBase + next_arena_slot_ * kArenaStride;
  next_arena_slot_ += slots;

  const std::uint32_t rkey = next_rkey_++;
  auto region = std::make_unique<MemoryRegion>(base, rkey, length, access);
  MemoryRegion& ref = *region;
  regions_.emplace(rkey, std::move(region));
  total_bytes_ += length;
  return ref;
}

MemoryRegion* MemoryManager::find(std::uint32_t rkey) {
  auto it = regions_.find(rkey);
  return it == regions_.end() ? nullptr : it->second.get();
}

const MemoryRegion* MemoryManager::find(std::uint32_t rkey) const {
  auto it = regions_.find(rkey);
  return it == regions_.end() ? nullptr : it->second.get();
}

void MemoryManager::invalidate_all() {
  for (auto& [rkey, region] : regions_) region->valid_ = false;
}

MemoryRegion* MemoryManager::reregister(std::uint32_t old_rkey) {
  auto it = regions_.find(old_rkey);
  if (it == regions_.end()) return nullptr;
  std::unique_ptr<MemoryRegion> region = std::move(it->second);
  regions_.erase(it);
  const std::uint32_t rkey = next_rkey_++;
  region->rkey_ = rkey;
  region->valid_ = true;
  MemoryRegion& ref = *region;
  regions_.emplace(rkey, std::move(region));
  return &ref;
}

MemStatus MemoryManager::check(std::uint32_t rkey, std::uint64_t va,
                               std::size_t len, Access wanted) const {
  const MemoryRegion* region = find(rkey);
  if (region == nullptr || !region->valid()) return MemStatus::kBadRkey;
  if (!region->contains(va, len)) return MemStatus::kOutOfBounds;
  if (!has_access(region->access(), wanted)) return MemStatus::kAccessDenied;
  if (has_access(wanted, Access::kRemoteAtomic) && (va % 8) != 0) {
    return MemStatus::kMisaligned;
  }
  return MemStatus::kOk;
}

std::uint64_t load_le64(std::span<const std::uint8_t> bytes) {
  assert(bytes.size() >= 8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | bytes[static_cast<std::size_t>(i)];
  }
  return v;
}

void store_le64(std::span<std::uint8_t> bytes, std::uint64_t value) {
  assert(bytes.size() >= 8);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

}  // namespace xmem::rnic
