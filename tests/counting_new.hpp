#pragma once

// Replaces the global operator new and operator delete with versions that
// count calls while an AllocationCount is alive. Include it in exactly one
// source file of a test binary: the replacement is program-wide.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace pushpull::alloc_count {

inline std::atomic<bool> g_counting{false};
inline std::atomic<std::size_t> g_news{0};
inline std::atomic<std::size_t> g_deletes{0};
inline std::atomic<std::size_t> g_largest{0};
inline std::atomic<std::size_t> g_large_at{0};
inline std::atomic<std::size_t> g_large{0};

inline void* counted_malloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (size >= g_large_at.load(std::memory_order_relaxed)) {
      g_large.fetch_add(1, std::memory_order_relaxed);
    }
    std::size_t largest = g_largest.load(std::memory_order_relaxed);
    while (size > largest &&
           !g_largest.compare_exchange_weak(largest, size,
                                            std::memory_order_relaxed)) {
    }
  }
  return std::malloc(size == 0 ? 1 : size);
}

inline void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

inline void counted_delete(void* p) noexcept {
  if (p != nullptr && g_counting.load(std::memory_order_relaxed)) {
    g_deletes.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(p);
}

/// Counts the allocations made while it is alive, and separately those of
/// at least `large_at` bytes.
class AllocationCount {
 public:
  explicit AllocationCount(std::size_t large_at = SIZE_MAX) {
    g_news = 0;
    g_deletes = 0;
    g_largest = 0;
    g_large_at = large_at;
    g_large = 0;
    g_counting = true;
  }
  ~AllocationCount() { g_counting = false; }
  AllocationCount(const AllocationCount&) = delete;
  AllocationCount& operator=(const AllocationCount&) = delete;

  [[nodiscard]] std::size_t news() const { return g_news; }
  [[nodiscard]] std::size_t deletes() const { return g_deletes; }
  [[nodiscard]] std::size_t largest() const { return g_largest; }
  /// Allocations of at least the constructor's `large_at` bytes.
  [[nodiscard]] std::size_t large() const { return g_large; }
};

}  // namespace pushpull::alloc_count

void* operator new(std::size_t size) {
  return pushpull::alloc_count::counted_new(size);
}
void* operator new[](std::size_t size) {
  return pushpull::alloc_count::counted_new(size);
}
// The nothrow forms too (std::stable_sort's temporary buffer uses them), so
// every block the replaced deletes free came from the same malloc.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return pushpull::alloc_count::counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return pushpull::alloc_count::counted_malloc(size);
}
void operator delete(void* p) noexcept { pushpull::alloc_count::counted_delete(p); }
void operator delete[](void* p) noexcept {
  pushpull::alloc_count::counted_delete(p);
}
void operator delete(void* p, std::size_t) noexcept {
  pushpull::alloc_count::counted_delete(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  pushpull::alloc_count::counted_delete(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  pushpull::alloc_count::counted_delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  pushpull::alloc_count::counted_delete(p);
}
