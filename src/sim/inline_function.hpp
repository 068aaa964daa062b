// Small-buffer-optimized, move-only callable wrapper.
//
// The event kernel fires tens of millions of callbacks per run; wrapping
// each one in std::function heap-allocates for any capture larger than a
// couple of pointers and drags atomic refcounts along when captures hold
// shared state. InlineFunction stores the callable inline (up to
// InlineBytes) and only falls back to the heap for oversized captures, so
// the common scheduling paths ([this], [this, port], [this, pkt]) never
// allocate. Move-only by design: callables move between the scheduling
// site and the event slab, they are never copied.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace adcp::sim {

template <typename Signature, std::size_t InlineBytes = 64>
class InlineFunction;

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (stored_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = inline_ops<D>();
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = heap_ops<D>();
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  /// Assigns a fresh callable in place — the capture is constructed
  /// directly in this object's buffer, with no intermediate
  /// InlineFunction temporary (the event kernel relies on this to build
  /// callbacks straight into slab slots).
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction& operator=(F&& f) {
    reset();
    if constexpr (stored_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = inline_ops<D>();
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = heap_ops<D>();
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    assert(ops_ != nullptr && "calling an empty InlineFunction");
    return ops_->invoke(buf_, std::forward<Args>(args)...);
  }

  /// Destroys the held callable (no-op when empty).
  void reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    /// Move-constructs dst from src, then destroys src. nullptr means the
    /// stored bytes are trivially relocatable: move_from() memcpys the
    /// whole inline buffer instead (fixed size, so it inlines), which
    /// covers trivially copyable captures and the heap pointer case.
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr means trivially destructible (reset() skips the call).
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static constexpr bool stored_inline =
      sizeof(D) <= InlineBytes && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static const Ops* inline_ops() {
    static constexpr Ops ops{
        [](void* s, Args&&... args) -> R {
          return (*std::launder(static_cast<D*>(s)))(std::forward<Args>(args)...);
        },
        std::is_trivially_copyable_v<D>
            ? nullptr
            : +[](void* dst, void* src) noexcept {
                D* from = std::launder(static_cast<D*>(src));
                ::new (dst) D(std::move(*from));
                from->~D();
              },
        std::is_trivially_destructible_v<D>
            ? nullptr
            : +[](void* s) noexcept { std::launder(static_cast<D*>(s))->~D(); }};
    return &ops;
  }

  template <typename D>
  static const Ops* heap_ops() {
    static constexpr Ops ops{
        [](void* s, Args&&... args) -> R {
          return (**std::launder(static_cast<D**>(s)))(std::forward<Args>(args)...);
        },
        nullptr,  // the stored D* relocates by memcpy
        [](void* s) noexcept { delete *std::launder(static_cast<D**>(s)); }};
    return &ops;
  }

  void move_from(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, InlineBytes);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[InlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace adcp::sim
