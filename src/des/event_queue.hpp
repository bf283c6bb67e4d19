#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/event.hpp"
#include "des/id_map.hpp"
#include "des/indexed_heap.hpp"

namespace pushpull::des {

/// Pending-event set: (time, id) ordering with cancellation by id.
///
/// An indexed binary min-heap (des::IndexedHeap) of small {time, id, slot}
/// keys over a slab of actions. The heap records each slab slot's key
/// position, so cancel() removes the key at once (eager cancellation: the
/// heap holds live events only, and the queries below are plain reads).
/// One open-addressing id→slot map finds the slot of a cancelled id. Freed
/// slots are reused, and every array keeps its capacity across pops,
/// cancels and clear(), so a warm queue schedules, cancels and dispatches
/// without allocating. des::ReferenceHeap is the seed structure it must
/// match, event for event (tests/test_event_queue_diff.cpp).
class EventQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

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
  struct Earlier {
    [[nodiscard]] bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.time != b.time) return a.time < b.time;
      return a.id < b.id;
    }
  };

  /// Removes the key at heap position `pos` and its id, and frees its slot,
  /// which still holds the action. Returns the slot.
  Slot remove_at(std::size_t pos);
  [[nodiscard]] const Key& top(const char* op) const;

  IndexedHeap<Key, Earlier> heap_;    // keys; slot -> key position
  std::vector<EventAction> actions_;  // slab, indexed by slot
  std::vector<Slot> free_;            // freed slots, reused last-in first-out
  IdMap<Slot> slot_of_;               // pending id -> slot
};

}  // namespace pushpull::des
