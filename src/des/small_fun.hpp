#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pushpull::des {

/// Move-only `void()` callable with `InlineBytes` of in-object storage.
///
/// The event kernel schedules millions of closures per run; wrapping each
/// in std::function costs one heap allocation whenever the capture exceeds
/// the library's (small, implementation-defined) buffer — which every
/// transmission-end closure does. SmallFun sizes the buffer to the
/// kernel's real captures so events live entirely inside the pending-event
/// set's action slab: no per-event allocation, no pointer chase on
/// dispatch.
///
/// A callable is stored inline when it fits and is nothrow-move-
/// constructible (moves happen during vector reallocation, where a throw
/// could not be recovered); anything else falls back to a single heap
/// cell, preserving std::function's universality. Unlike std::function,
/// move-only callables (captures holding unique_ptr or moved-from
/// aggregates) are accepted.
template <std::size_t InlineBytes>
class SmallFun {
 public:
  SmallFun() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFun> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function
  SmallFun(F&& f) {  // NOLINT(bugprone-forwarding-reference-overload)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= InlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = &invoke_inline<Fn>;
      manage_ = &manage_inline<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = &invoke_heap<Fn>;
      manage_ = &manage_heap<Fn>;
    }
  }

  SmallFun(SmallFun&& other) noexcept
      : invoke_(other.invoke_), manage_(other.manage_) {
    if (manage_ != nullptr) manage_(storage_, other.storage_);
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  SmallFun& operator=(SmallFun&& other) noexcept {
    if (this == &other) return *this;
    reset();
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) manage_(storage_, other.storage_);
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
    return *this;
  }

  SmallFun(const SmallFun&) = delete;
  SmallFun& operator=(const SmallFun&) = delete;

  ~SmallFun() { reset(); }

  void operator()() { invoke_(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

 private:
  void reset() noexcept {
    if (manage_ != nullptr) manage_(storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  // One manage function per stored type: src != nullptr relocates src's
  // callable into dst (destroying src's), src == nullptr destroys dst's.
  template <typename Fn>
  static void invoke_inline(void* p) {
    (*std::launder(reinterpret_cast<Fn*>(p)))();
  }
  template <typename Fn>
  static void manage_inline(void* dst, void* src) noexcept {
    if (src != nullptr) {
      Fn* from = std::launder(reinterpret_cast<Fn*>(src));
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    } else {
      std::launder(reinterpret_cast<Fn*>(dst))->~Fn();
    }
  }
  template <typename Fn>
  static void invoke_heap(void* p) {
    (**std::launder(reinterpret_cast<Fn**>(p)))();
  }
  template <typename Fn>
  static void manage_heap(void* dst, void* src) noexcept {
    if (src != nullptr) {
      ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
    } else {
      delete *std::launder(reinterpret_cast<Fn**>(dst));
    }
  }

  alignas(std::max_align_t) unsigned char storage_[InlineBytes];
  void (*invoke_)(void*) = nullptr;
  void (*manage_)(void*, void*) = nullptr;
};

}  // namespace pushpull::des
