#pragma once

#include <cstddef>
#include <unordered_set>
#include <vector>

#include "des/event.hpp"

namespace pushpull::des {

/// The seed pending-event set, kept as the reference for des::EventQueue,
/// with the same interface: a binary min-heap of whole Events on (time, id)
/// with lazy cancellation. Cancelled events stay in the heap and are
/// skipped when they surface, with the cancelled-id set purged as they do.
/// O(log n) per operation and trivially correct; the differential suite in
/// tests/test_event_queue_diff.cpp holds EventQueue to it, and
/// bench/throughput times it as the seed structure.
class ReferenceHeap {
 public:
  [[nodiscard]] bool empty() const noexcept { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_count_; }

  void push(Event event);
  [[nodiscard]] Event pop();
  [[nodiscard]] SimTime next_time() const;
  [[nodiscard]] EventId next_id() const;
  bool cancel(EventId id);
  void clear();

 private:
  void drop_cancelled_top() const;

  // mutable: next_time() purges cancelled entries lazily without changing
  // any observable state (live set and order are unchanged).
  mutable std::vector<Event> heap_;
  std::unordered_set<EventId> pending_;            // live, not-yet-fired ids
  mutable std::unordered_set<EventId> cancelled_;  // cancelled, still in heap_
  std::size_t live_count_ = 0;
};

}  // namespace pushpull::des
