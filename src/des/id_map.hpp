#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pushpull::des {

/// Narrows a slot index to the slot type `Slot`, whose maximum is reserved
/// as the "no slot" marker. Throws std::length_error instead of wrapping
/// when `index` does not fit.
template <typename Slot>
[[nodiscard]] Slot narrow_slot(std::size_t index) {
  if (index >= std::numeric_limits<Slot>::max()) {
    throw std::length_error("slot index " + std::to_string(index) +
                            " exceeds the slot type's range");
  }
  return static_cast<Slot>(index);
}

/// Open-addressing map from 64-bit ids (event ids, request ids) to small
/// values: one flat bucket array, linear probing from a Fibonacci hash,
/// backward-shift erase (no tombstones, so probe lengths never degrade
/// across many erases). The load factor stays at or below 1/2; the table
/// doubles when an insert would pass it and never shrinks, so a warm map
/// inserts and erases without allocating, and clear() keeps its capacity.
///
/// There is deliberately no iteration API: bucket order depends on the
/// capacity history, so nothing may ever observe it.
template <typename Value>
class IdMap {
 public:
  using Key = std::uint64_t;

  IdMap() = default;
  // A moved-from map is empty and usable (every lookup checks size_ first).
  IdMap(IdMap&& other) noexcept
      : buckets_(std::move(other.buckets_)),
        size_(std::exchange(other.size_, 0)),
        mask_(other.mask_),
        shift_(other.shift_) {}
  IdMap& operator=(IdMap&& other) noexcept {
    buckets_ = std::move(other.buckets_);
    size_ = std::exchange(other.size_, 0);
    mask_ = other.mask_;
    shift_ = other.shift_;
    return *this;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The value stored for `key`, or nullptr.
  [[nodiscard]] Value* find(Key key) noexcept {
    const std::size_t i = locate(key);
    return i == kAbsent ? nullptr : &buckets_[i].value;
  }
  [[nodiscard]] bool contains(Key key) const noexcept {
    return locate(key) != kAbsent;
  }

  /// Inserts (key, value). Returns false, leaving the map unchanged, when
  /// the key is already present.
  bool insert(Key key, Value value) {
    bool inserted = false;
    Value& slot = find_or_insert(key, inserted);
    if (inserted) slot = std::move(value);
    return inserted;
  }

  /// The value stored for `key`, value-initialized first if absent.
  Value& operator[](Key key) {
    bool inserted = false;
    return find_or_insert(key, inserted);
  }

  /// Removes `key`. Returns false when it was absent.
  bool erase(Key key) noexcept {
    const std::size_t i = locate(key);
    if (i == kAbsent) return false;
    erase_at(i);
    return true;
  }

  /// Removes every entry, keeping the capacity.
  void clear() noexcept {
    if (size_ == 0) return;
    for (Bucket& b : buckets_) b.used = false;
    size_ = 0;
  }

 private:
  struct Bucket {
    Key key = 0;
    Value value{};
    bool used = false;
  };

  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();

  [[nodiscard]] std::size_t home(Key key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// The bucket holding `key`, or kAbsent.
  [[nodiscard]] std::size_t locate(Key key) const noexcept {
    if (size_ == 0) return kAbsent;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (!buckets_[i].used) return kAbsent;
      if (buckets_[i].key == key) return i;
    }
  }

  Value& find_or_insert(Key key, bool& inserted) {
    if (2 * (size_ + 1) > buckets_.size()) grow();
    std::size_t i = home(key);
    for (; buckets_[i].used; i = (i + 1) & mask_) {
      if (buckets_[i].key == key) return buckets_[i].value;
    }
    Bucket& b = buckets_[i];
    b.key = key;
    b.value = Value{};
    b.used = true;
    ++size_;
    inserted = true;
    return b.value;
  }

  /// Backward-shift deletion: walks the cluster after `hole`, moving back
  /// every entry whose home does not lie cyclically in (hole, j], so each
  /// remaining key stays reachable from its home without a tombstone.
  void erase_at(std::size_t hole) noexcept {
    for (std::size_t j = (hole + 1) & mask_; buckets_[j].used;
         j = (j + 1) & mask_) {
      const std::size_t h = home(buckets_[j].key);
      const bool stays = hole <= j ? (hole < h && h <= j)
                                   : (hole < h || h <= j);
      if (stays) continue;
      buckets_[hole] = std::move(buckets_[j]);
      hole = j;
    }
    buckets_[hole].used = false;
    --size_;
  }

  void grow() {
    const std::size_t cap =
        buckets_.empty() ? kMinBuckets : 2 * buckets_.size();
    std::vector<Bucket> old(cap);
    old.swap(buckets_);
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    for (Bucket& b : old) {
      if (!b.used) continue;
      std::size_t i = home(b.key);
      while (buckets_[i].used) i = (i + 1) & mask_;
      buckets_[i] = std::move(b);
    }
  }

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace pushpull::des
