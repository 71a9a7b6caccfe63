#pragma once
/// \file small_fn.hpp
/// SmallFn: a move-only type-erased callable with small-buffer
/// optimization, shared by the event kernel and the thread pool.
///
/// std::function heap-allocates for any capture larger than its
/// implementation-defined (and typically tiny) inline buffer, and drags in
/// copy-constructibility requirements the kernel never needs.  SmallFn
/// stores captures up to `Capacity` bytes inline (no allocation on
/// schedule/post), falls back to a single heap cell beyond that, and is
/// move-only, so single-shot tasks can own move-only state.  Dispatch is
/// two raw function pointers (invoke + relocate/destroy), no virtual
/// tables, no RTTI.

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace rtw::sim {

template <typename Signature, std::size_t Capacity = 48>
class SmallFn;

template <typename R, typename... Args, std::size_t Capacity>
class SmallFn<R(Args...), Capacity> {
public:
  SmallFn() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, SmallFn> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { destroy(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  /// True when the wrapped callable lives in the inline buffer (exposed so
  /// benches and tests can assert the no-allocation fast path is taken).
  bool is_inline() const noexcept { return ops_ && ops_->inline_stored; }

  /// Whether a callable of type F would be stored inline.
  template <typename F>
  static constexpr bool fits_inline() noexcept {
    return sizeof(F) <= Capacity &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

private:
  struct Ops {
    R (*invoke)(unsigned char*, Args&&...);
    /// Move-constructs into `dst` from `src` and destroys `src`.
    void (*relocate)(unsigned char* dst, unsigned char* src) noexcept;
    void (*destroy)(unsigned char*) noexcept;
    bool inline_stored;
    /// Nonzero when relocation is a memcpy of this many leading buffer
    /// bytes -- exactly the bytes the callable occupies (a trivially
    /// copyable capture, or a heap cell's owning pointer), never buffer
    /// the constructor left unwritten.  Lets moves skip the indirect
    /// relocate call.  0 means relocate() runs; that includes captureless
    /// callables, whose one byte is never written.
    std::size_t relocate_bytes;
    /// Destruction is a no-op (trivial inline captures); lets destroy()
    /// skip the indirect call.
    bool trivially_destructible;
  };

  template <typename Fn>
  static constexpr Ops inline_ops{
      [](unsigned char* s, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(s)))(
            std::forward<Args>(args)...);
      },
      [](unsigned char* dst, unsigned char* src) noexcept {
        Fn* f = std::launder(reinterpret_cast<Fn*>(src));
        ::new (static_cast<void*>(dst)) Fn(std::move(*f));
        f->~Fn();
      },
      [](unsigned char* s) noexcept {
        std::launder(reinterpret_cast<Fn*>(s))->~Fn();
      },
      /*inline_stored=*/true,
      /*relocate_bytes=*/
      std::is_trivially_copyable_v<Fn> && !std::is_empty_v<Fn> ? sizeof(Fn)
                                                                : 0,
      /*trivially_destructible=*/std::is_trivially_destructible_v<Fn>};

  template <typename Fn>
  static constexpr Ops heap_ops{
      [](unsigned char* s, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<Fn**>(s)))(
            std::forward<Args>(args)...);
      },
      [](unsigned char* dst, unsigned char* src) noexcept {
        // Relocating a heap cell is a pointer copy; ownership transfers.
        ::new (static_cast<void*>(dst))
            Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      },
      [](unsigned char* s) noexcept {
        delete *std::launder(reinterpret_cast<Fn**>(s));
      },
      /*inline_stored=*/false,
      /*relocate_bytes=*/sizeof(Fn*),  // buffer holds the owning pointer
      /*trivially_destructible=*/false};

  void move_from(SmallFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_) {
      if (ops_->relocate_bytes)
        std::memcpy(storage_, other.storage_, ops_->relocate_bytes);
      else
        ops_->relocate(storage_, other.storage_);
    }
    other.ops_ = nullptr;
  }

  void destroy() noexcept {
    if (ops_) {
      if (!ops_->trivially_destructible) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  static_assert(Capacity >= sizeof(void*), "Capacity must hold a pointer");

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace rtw::sim
