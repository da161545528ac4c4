// In-band network telemetry (INT) hop metadata.
//
// Every forwarding element that has INT enabled appends one IntHopRecord
// to the packet's stack: who forwarded it, when it entered and left the
// element's queue, and how deep that queue was. Sinks pop the whole stack
// and feed per-flow path-latency and queue-occupancy histograms
// (telemetry::IntCollector).
//
// The stack lives in PacketMeta rather than in the frame bytes — growing
// the real payload would perturb every serialization time and ICRC in the
// simulation — but its wire format is pinned (kWireBytes + static_assert,
// serialize/parse through ByteWriter/ByteReader) so the exact on-wire
// overhead a hardware deployment would pay is accountable byte for byte:
// IntStack::wire_bytes() is what the collector charges against goodput.
//
// Timestamps are 32-bit nanoseconds, as in compact INT hop formats; they
// wrap every ~4.29 s, and consumers subtract mod 2^32, which is exact for
// any latency below the wrap period (simulated runs are milliseconds).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/bytes.hpp"
#include "sim/time.hpp"

namespace xmem::net {

/// Which kind of element appended the record. The `queue_depth` unit
/// depends on it: packets waiting in the port FIFO behind this frame
/// (kLink), bytes queued at the egress port (kTmQueue), requests pending
/// in the RNIC RX queue (kRnic).
enum class IntHopKind : std::uint8_t {
  kLink = 1,     ///< Port/link serialization hop.
  kTmQueue = 2,  ///< Switch traffic-manager queue hop.
  kRnic = 3,     ///< RNIC request service hop.
};

struct IntHopRecord {
  std::uint16_t hop_id = 0;    ///< Stable per-element id (assigned at enable).
  std::uint8_t kind = 0;       ///< IntHopKind.
  std::uint8_t flags = 0;      ///< Bit 0: queue_depth field is meaningful.
  std::uint32_t queue_depth = 0;
  std::uint32_t ingress_ns = 0;  ///< Wrapping 32-bit nanosecond timestamps.
  std::uint32_t egress_ns = 0;

  static constexpr std::uint8_t kFlagDepthValid = 0x01;
  static constexpr std::size_t kWireBytes = 16;

  void serialize(ByteWriter& w) const {
    w.u16(hop_id);
    w.u8(kind);
    w.u8(flags);
    w.u32(queue_depth);
    w.u32(ingress_ns);
    w.u32(egress_ns);
  }

  [[nodiscard]] static IntHopRecord parse(ByteReader& r) {
    IntHopRecord rec;
    rec.hop_id = r.u16();
    rec.kind = r.u8();
    rec.flags = r.u8();
    rec.queue_depth = r.u32();
    rec.ingress_ns = r.u32();
    rec.egress_ns = r.u32();
    return rec;
  }
};

static_assert(IntHopRecord::kWireBytes == 2 + 1 + 1 + 4 + 4 + 4,
              "IntHopRecord wire layout changed; update kWireBytes and "
              "every parser");

/// Truncate a simulation time (picoseconds) to the 32-bit nanosecond
/// timestamp format INT hop records carry.
[[nodiscard]] inline std::uint32_t int_timestamp_ns(sim::Time t) {
  return static_cast<std::uint32_t>(
      static_cast<std::uint64_t>(t) / 1000u);
}

/// Bounded per-packet hop stack. Pushing past kMaxHops drops the record
/// and latches `overflowed` — long paths degrade visibly, never silently.
class IntStack {
 public:
  static constexpr std::size_t kMaxHops = 12;
  /// 1-byte header (bits 0-6: hop count, bit 7: overflow) + records.
  static constexpr std::size_t kMaxWireBytes =
      1 + kMaxHops * IntHopRecord::kWireBytes;

  void push(const IntHopRecord& rec) {
    if (count_ >= kMaxHops) {
      overflowed_ = true;
      return;
    }
    hops_[count_++] = rec;
  }

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] bool overflowed() const { return overflowed_; }
  [[nodiscard]] const IntHopRecord& hop(std::size_t i) const {
    return hops_.at(i);
  }

  /// On-wire footprint this stack would add to the frame.
  [[nodiscard]] std::size_t wire_bytes() const {
    return 1 + count_ * IntHopRecord::kWireBytes;
  }

  void serialize(ByteWriter& w) const {
    w.u8(static_cast<std::uint8_t>((count_ & 0x7f) |
                                   (overflowed_ ? 0x80 : 0x00)));
    for (std::size_t i = 0; i < count_; ++i) hops_[i].serialize(w);
  }

  [[nodiscard]] static IntStack parse(ByteReader& r) {
    IntStack s;
    const std::uint8_t header = r.u8();
    s.overflowed_ = (header & 0x80) != 0;
    const std::size_t n = header & 0x7f;
    if (n > kMaxHops) throw BufferError("IntStack: hop count exceeds max");
    for (std::size_t i = 0; i < n; ++i) s.hops_[i] = IntHopRecord::parse(r);
    s.count_ = n;
    return s;
  }

  /// Back to the empty state for reuse from the pool. Slots past count_
  /// are never read, so the record array itself stays dirty on purpose —
  /// skipping the ~200-byte zeroing is most of the point of pooling.
  void reset() {
    count_ = 0;
    overflowed_ = false;
  }

 private:
  std::size_t count_ = 0;
  bool overflowed_ = false;
  std::array<IntHopRecord, kMaxHops> hops_{};
};

static_assert(IntStack::kMaxWireBytes == 193,
              "IntStack wire layout changed; update kMaxWireBytes");

/// Owning handle PacketMeta carries. Null (one pointer, zero branches on
/// the hot path beyond a null check) when INT is off; deep-copied when a
/// packet is cloned, so a duplicate frame accumulates its own downstream
/// hops — exactly what real INT metadata would do.
///
/// Stacks are recycled through a free list: with INT on, every monitored
/// packet materializes (and later drops) a ~250-byte stack, and paying
/// malloc + value-init per packet dominates the whole feature's cost.
/// One simulation runs on one thread, but a sweep runs replicas on
/// several, so each thread keeps its own unsynchronized list. A
/// per-thread cache holds no simulation state: every stack is reset on
/// acquire or overwritten on copy, so which list a stack came from (and
/// which thread freed it) cannot change a result.
class IntStackHandle {
 public:
  IntStackHandle() = default;
  IntStackHandle(const IntStackHandle& other)
      : stack_(other.stack_ ? copy_of(*other.stack_) : nullptr) {}
  IntStackHandle& operator=(const IntStackHandle& other) {
    if (this != &other) {
      release();
      stack_ = other.stack_ ? copy_of(*other.stack_) : nullptr;
    }
    return *this;
  }
  IntStackHandle(IntStackHandle&& other) noexcept
      : stack_(other.stack_) {
    other.stack_ = nullptr;
  }
  IntStackHandle& operator=(IntStackHandle&& other) noexcept {
    if (this != &other) {
      release();
      stack_ = other.stack_;
      other.stack_ = nullptr;
    }
    return *this;
  }
  ~IntStackHandle() { release(); }

  [[nodiscard]] bool active() const { return stack_ != nullptr; }
  [[nodiscard]] const IntStack* get() const { return stack_; }
  [[nodiscard]] IntStack* get() { return stack_; }

  /// The stack, materializing an empty one first if absent. The first
  /// INT-enabled element a packet traverses becomes its INT source.
  [[nodiscard]] IntStack& ensure() {
    if (!stack_) stack_ = acquire();
    return *stack_;
  }

  void clear() { release(); }

 private:
  struct Pool {
    std::vector<IntStack*> free;
    ~Pool() {
      for (IntStack* s : free) delete s;
    }
  };
  /// The calling thread's list: a function-local thread_local,
  /// constructed on first use (so handles in other statics stay safe)
  /// and reclaimed at thread exit (keeps leak checkers quiet). Defined
  /// out of line in packet.cpp, so the thread-local access stays off
  /// the inline paths that run for every packet with INT off.
  static Pool& pool();
  static constexpr std::size_t kPoolCap = 4096;

  [[nodiscard]] static IntStack* acquire() {
    Pool& p = pool();
    if (!p.free.empty()) {
      IntStack* s = p.free.back();
      p.free.pop_back();
      s->reset();
      return s;
    }
    return new IntStack();
  }

  [[nodiscard]] static IntStack* copy_of(const IntStack& src) {
    Pool& p = pool();
    if (!p.free.empty()) {
      IntStack* s = p.free.back();
      p.free.pop_back();
      *s = src;
      return s;
    }
    return new IntStack(src);
  }

  void release() {
    if (!stack_) return;
    Pool& p = pool();
    if (p.free.size() < kPoolCap) {
      p.free.push_back(stack_);
    } else {
      delete stack_;
    }
    stack_ = nullptr;
  }

  IntStack* stack_ = nullptr;
};

}  // namespace xmem::net
