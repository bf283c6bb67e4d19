#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/category.hpp"

namespace pushpull::obs {

/// One structured trace event. `name` points at a static string literal
/// supplied by the emission site ("tx_start", "enter", ...); the sink
/// never owns or copies it. `a`/`b` carry small integer operands (item id,
/// class id, attempt number) and `v` one double operand (queue length,
/// demand draw, cost) — a fixed shape keeps the ring buffer POD and the
/// JSONL rendering uniform.
struct TraceEvent {
  double time = 0.0;
  std::uint64_t seq = 0;
  Category category = Category::kQueue;
  const char* name = "";
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double v = 0.0;
};

/// Bounded ring of trace events, stored in a compact binary encoding.
///
/// Determinism rules (DESIGN §8): the sink is fed only sim-time-stamped
/// events in dispatch order, never reads a clock or an RNG, and never
/// influences the simulation — recording is strictly write-only from the
/// sim's perspective, which is what makes traced and untraced runs
/// bit-identical.
///
/// Sequence numbers: `record` assigns the next seq to EVERY offered event,
/// whether or not the runtime category mask stores it. A category-filtered
/// run therefore produces an exact sub-sequence (same seq values, same
/// payloads) of the unfiltered run's stream — the property the test suite
/// pins.
///
/// Capacity: when full, the oldest stored event is dropped (and counted)
/// so a long run degrades to "most recent window" rather than OOM.
///
/// Storage (DESIGN §13): events are not stored as 56-byte TraceEvent
/// structs but as variable-length binary records in a byte log —
/// (name, category) interned to a small id, seq delta-encoded, a/b as
/// varints, time raw, v present only when its bit pattern is non-zero
/// (~14-22 bytes per event in practice). Recording therefore costs a short
/// sequential append into a cache-resident log instead of a wide scattered
/// store; decoding back to TraceEvent structs — and from there to JSONL —
/// is deferred to snapshot()/export, off the simulation hot path. The
/// decoded stream is field-for-field identical to what the struct ring
/// stored (same name pointers, same bit patterns), so exports are
/// byte-identical.
class TraceSink {
 public:
  /// `capacity` must be > 0; `categories` is the runtime storage mask.
  TraceSink(std::size_t capacity, std::uint32_t categories);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Offers an event. Always consumes one sequence number; stores the
  /// event only if its category is in the runtime mask (dropping the
  /// oldest stored event when at capacity).
  void record(double time, Category category, const char* name,
              std::uint64_t a, std::uint64_t b, double v);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint32_t categories() const noexcept {
    return categories_;
  }
  /// Sequence numbers consumed so far (== events offered, stored or not).
  [[nodiscard]] std::uint64_t emitted() const noexcept { return next_seq_; }
  /// Events evicted from a full ring (excludes events skipped by mask).
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Stored events in (time, seq) order. Events are offered in dispatch
  /// order so time is already non-decreasing and seq strictly increasing;
  /// the sort is a stable belt-and-braces pass that also makes the export
  /// order explicit rather than incidental.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Forgets stored events and counters; seq restarts at 0. Used between
  /// replications so each rep's stream is self-contained.
  void clear();

 private:
  /// Interning key: emission sites pass static string literals, so the
  /// pointer itself identifies the site; category is part of the key in
  /// case one name is emitted under two categories.
  struct NameKey {
    const char* name;
    Category category;
    bool operator==(const NameKey&) const = default;
  };
  struct NameKeyHash {
    std::size_t operator()(const NameKey& k) const noexcept;
  };

  /// Direct-mapped cache in front of `name_ids_`: emission sites repeat a
  /// handful of literals millions of times, so the common intern is one
  /// pointer compare instead of a hash-map probe.
  struct InternSlot {
    const char* name = nullptr;
    Category category = Category::kQueue;
    std::uint32_t id = 0;
  };

  [[nodiscard]] std::uint32_t intern(const char* name, Category category);
  [[nodiscard]] std::uint32_t intern_slow(const char* name,
                                          Category category);
  void append_record(double time, std::uint64_t seq, std::uint32_t name_id,
                     std::uint64_t a, std::uint64_t b, double v);
  /// Parses and discards the record at head_off_.
  void drop_oldest();

  std::size_t capacity_;
  std::uint32_t categories_;
  std::vector<std::uint8_t> log_;   // encoded records, oldest at head_off_
  std::size_t head_off_ = 0;        // byte offset of the oldest record
  std::size_t count_ = 0;           // stored (undropped) records
  std::uint64_t head_prev_seq_ = 0; // seq preceding the head record
  std::uint64_t tail_prev_seq_ = 0; // seq of the newest encoded record
  std::vector<NameKey> names_;      // id -> (name, category)
  std::unordered_map<NameKey, std::uint32_t, NameKeyHash> name_ids_;
  std::array<InternSlot, 16> intern_cache_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Cheap, copyable handle the instrumented subsystems hold. A
/// default-constructed Tracer is inert: `emit` reduces to one null check,
/// which is the entire disabled-path cost.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(TraceSink* sink) : sink_(sink) {}

  template <Category C>
  void emit(double time, const char* name, std::uint64_t a = 0,
            std::uint64_t b = 0, double v = 0.0) const {
    if (sink_ == nullptr) return;
    sink_->record(time, C, name, a, b, v);
  }

 private:
  TraceSink* sink_ = nullptr;
};

}  // namespace pushpull::obs
