#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "des/event.hpp"
#include "des/id_map.hpp"

namespace pushpull::des {

class ReferenceHeap;

/// Pending-event set implementation, chosen at construction.
///
/// kIndexedHeap, the default, is the production queue (see EventQueue).
/// kBinaryHeap is the reference structure (see reference_heap.hpp): a heap
/// of whole events with lazy cancellation, trivially correct. The
/// differential suite in tests/test_event_queue_diff.cpp proves the two
/// observably identical; only tests and bench/throughput select it.
enum class EventQueueKind { kIndexedHeap, kBinaryHeap };

/// Pending-event set: (time, id) ordering with cancellation by id.
///
/// The default backend is an indexed binary min-heap of small
/// {time, id, slot} keys over a slab of actions. Each slab slot records
/// its key's heap position, so cancel() removes the key at once (eager
/// cancellation: the heap holds live events only, and the queries below
/// are plain reads). One open-addressing id→slot map finds the slot of a
/// cancelled id. Freed slots are reused, and every array keeps its
/// capacity across pops, cancels and clear(), so a warm queue schedules,
/// cancels and dispatches without allocating.
class EventQueue {
 public:
  EventQueue();  // indexed heap
  explicit EventQueue(EventQueueKind kind);
  EventQueue(EventQueue&&) noexcept;
  EventQueue& operator=(EventQueue&&) noexcept;
  ~EventQueue();

  [[nodiscard]] bool empty() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept;

  /// Inserts an event; its id must be unique among pending events (the
  /// Simulator guarantees this). A duplicate throws std::logic_error.
  void push(Event event);

  /// Removes and returns the earliest live event. Throws std::logic_error
  /// when empty.
  [[nodiscard]] Event pop();

  /// Time of the earliest live event. Throws std::logic_error when empty.
  [[nodiscard]] SimTime next_time() const;

  /// Id of the earliest live event, the tie-breaker among equal times.
  /// Throws std::logic_error when empty.
  [[nodiscard]] EventId next_id() const;

  /// Cancels a pending event. Returns false if the id is not pending
  /// (already fired, already cancelled, or never scheduled).
  bool cancel(EventId id);

  void clear();

 private:
  using Slot = std::uint32_t;
  struct Key {
    SimTime time = 0.0;
    EventId id = 0;
    Slot slot = 0;
  };

  /// Heap order: earliest time first, FIFO (lower id) among equal times.
  [[nodiscard]] static bool before(const Key& a, const Key& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;
  }
  /// Writes `key` at heap position `pos` and records the position.
  void place(std::size_t pos, const Key& key) noexcept;
  void sift_up(std::size_t pos, Key key) noexcept;
  void sift_down(std::size_t pos, Key key) noexcept;
  /// Removes the key at heap position `pos` and its id, and frees its slot,
  /// which still holds the action. Returns the slot.
  Slot remove_at(std::size_t pos);
  [[nodiscard]] const Key& top(const char* op) const;

  std::vector<Key> heap_;             // binary min-heap on (time, id)
  std::vector<EventAction> actions_;  // slab, indexed by slot
  std::vector<Slot> heap_pos_;        // slot -> index of its key in heap_
  std::vector<Slot> free_;            // freed slots, reused last-in first-out
  IdMap<Slot> slot_of_;               // pending id -> slot
  std::unique_ptr<ReferenceHeap> reference_;  // engaged iff kBinaryHeap
};

}  // namespace pushpull::des
