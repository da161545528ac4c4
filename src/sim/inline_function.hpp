// A small-buffer-optimized, move-only replacement for std::function<void()>.
//
// The event queue schedules millions of callbacks per simulated second and
// the overwhelming majority are small capture lambdas ([this], [this, packet],
// [this, End, Packet]). std::function boxes anything larger than ~16 bytes on
// the heap; InlineFunction keeps captures up to kInlineBytes inline, so the
// common schedule_in() path never touches the allocator. 96 bytes is sized
// to hold the hottest lambdas in the tree exactly: Link::ship's [End, Packet],
// Port::start_next_transmission's [this, Packet, Time] and
// ProgrammableSwitch::receive's [this, Packet, port] are each 96 bytes
// around an 80-byte copy-on-write net::Packet. Each of those sites
// static_asserts fits_inline(), so a field added to Packet or PacketMeta
// fails the build instead of heap-allocating every link, port and switch
// event.
//
// Move-only on purpose: the queue is the sole owner of a scheduled callback,
// and copyability is what forces std::function to heap-allocate shared state.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace xmem::sim {

class InlineFunction {
 public:
  static constexpr std::size_t kInlineBytes = 96;

  InlineFunction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = boxed_ops<Fn>();
    }
  }

  InlineFunction(InlineFunction&& other) noexcept {
    if (other.ops_) {
      other.ops_->relocate(other.buf_, buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_) {
        other.ops_->relocate(other.buf_, buf_);
        ops_ = other.ops_;
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Whether a callable of type Fn is stored inline (no allocation).
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  /// Destroy the held callable (if any) and return to the empty state.
  void reset() noexcept {
    if (ops_) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct the callable from `from` into `to`, then destroy the
    /// source. `to` is raw (uninitialized) storage.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static const Ops* inline_ops() {
    static constexpr Ops ops{
        [](void* s) { (*std::launder(static_cast<Fn*>(s)))(); },
        [](void* from, void* to) noexcept {
          Fn* src = std::launder(static_cast<Fn*>(from));
          ::new (to) Fn(std::move(*src));
          src->~Fn();
        },
        [](void* s) noexcept { std::launder(static_cast<Fn*>(s))->~Fn(); },
    };
    return &ops;
  }

  template <typename Fn>
  static const Ops* boxed_ops() {
    static constexpr Ops ops{
        [](void* s) { (**std::launder(static_cast<Fn**>(s)))(); },
        [](void* from, void* to) noexcept {
          Fn** src = std::launder(static_cast<Fn**>(from));
          ::new (to) Fn*(*src);
          *src = nullptr;
        },
        [](void* s) noexcept { delete *std::launder(static_cast<Fn**>(s)); },
    };
    return &ops;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace xmem::sim
