#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace grunt::sim {

/// Move-only `void()` callable with small-buffer optimization.
///
/// Callables whose state fits `kInlineCapacity` bytes (and is nothrow
/// movable, so our own move stays noexcept) are stored in place; anything
/// larger falls back to a single heap allocation. This replaces
/// `std::function<void()>` in the event core: the common event closures
/// (a few pointers and a shared_ptr or two) schedule and fire without
/// touching the allocator.
class InplaceFunction {
 public:
  /// 48 bytes fits every closure on the simulator's request hot path
  /// (`this` + two shared_ptrs + a small POD, or a whole std::function).
  /// Pointer alignment keeps sizeof(InplaceFunction) at 56; over-aligned
  /// callables (rare) take the heap path via the alignment check below.
  static constexpr std::size_t kInlineCapacity = 48;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  InplaceFunction() = default;
  InplaceFunction(std::nullptr_t) {}  // NOLINT(runtime/explicit)

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, InplaceFunction> &&
                                     std::is_invocable_r_v<void, D&>>>
  InplaceFunction(F&& f) {  // NOLINT(runtime/explicit)
    EmplaceImpl<F, D>(std::forward<F>(f));
  }

  /// True (at compile time) if a callable of type F takes the inline path.
  template <class F, class D = std::decay_t<F>>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineCapacity && alignof(D) <= kInlineAlign &&
      std::is_nothrow_move_constructible_v<D>;

  /// Constructs the callable directly in this (empty or engaged) wrapper,
  /// skipping the temporary + relocation of `*this = InplaceFunction(f)`.
  /// Returns is_inline() as a compile-time-known value so callers can count
  /// SBO hits without reloading the ops table.
  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, InplaceFunction> &&
                                     std::is_invocable_r_v<void, D&>>>
  bool Emplace(F&& f) {
    Reset();
    EmplaceImpl<F, D>(std::forward<F>(f));
    return kFitsInline<F>;
  }
  /// The same for an already-wrapped callable: moves it in.
  bool Emplace(InplaceFunction&& f) {
    *this = std::move(f);
    return is_inline();
  }

  InplaceFunction(InplaceFunction&& other) noexcept { MoveFrom(other); }
  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;
  ~InplaceFunction() { Reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True if the wrapped callable lives in the inline buffer (no heap).
  bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

  void Reset() {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the callable at `dst` from `src` and destroys `src`.
    /// Null for trivially relocatable callables (plain memcpy suffices).
    void (*relocate)(void* dst, void* src);
    /// Null for trivially destructible inline callables.
    void (*destroy)(void*);
    bool inline_storage;
  };

  template <class F, class D>
  void EmplaceImpl(F&& f) {
    if constexpr (kFitsInline<F>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  template <class D>
  static void InlineInvoke(void* p) {
    (*std::launder(reinterpret_cast<D*>(p)))();
  }
  template <class D>
  static void InlineRelocate(void* dst, void* src) {
    D* s = std::launder(reinterpret_cast<D*>(src));
    ::new (dst) D(std::move(*s));
    s->~D();
  }
  template <class D>
  static void InlineDestroy(void* p) {
    std::launder(reinterpret_cast<D*>(p))->~D();
  }

  template <class D>
  static D*& HeapPtr(void* p) {
    return *std::launder(reinterpret_cast<D**>(p));
  }
  template <class D>
  static void HeapInvoke(void* p) {
    (*HeapPtr<D>(p))();
  }
  template <class D>
  static void HeapRelocate(void* dst, void* src) {
    ::new (dst) D*(HeapPtr<D>(src));
  }
  template <class D>
  static void HeapDestroy(void* p) {
    delete HeapPtr<D>(p);
  }

  template <class D>
  static constexpr Ops kInlineOps{
      &InlineInvoke<D>,
      std::is_trivially_copyable_v<D> ? nullptr : &InlineRelocate<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &InlineDestroy<D>, true};
  template <class D>
  static constexpr Ops kHeapOps{&HeapInvoke<D>, &HeapRelocate<D>,
                                &HeapDestroy<D>, false};

  void MoveFrom(InplaceFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(buf_, other.buf_);
      } else {
        __builtin_memcpy(buf_, other.buf_, kInlineCapacity);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace grunt::sim
