#include "des/reference_heap.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace pushpull::des {

void ReferenceHeap::push(Event event) {
  if (pending_.contains(event.id)) {
    throw std::logic_error("EventQueue: duplicate event id " +
                           std::to_string(event.id));
  }
  pending_.insert(event.id);
  heap_.push_back(std::move(event));
  std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
  ++live_count_;
}

void ReferenceHeap::drop_cancelled_top() const {
  if (cancelled_.empty()) return;
  while (!heap_.empty() && cancelled_.contains(heap_.front().id)) {
    cancelled_.erase(heap_.front().id);
    std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
    heap_.pop_back();
  }
}

Event ReferenceHeap::pop() {
  drop_cancelled_top();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue: pop() on an empty queue");
  }
  std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
  Event event = std::move(heap_.back());
  heap_.pop_back();
  pending_.erase(event.id);
  --live_count_;
  return event;
}

SimTime ReferenceHeap::next_time() const {
  drop_cancelled_top();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue: next_time() on an empty queue");
  }
  return heap_.front().time;
}

EventId ReferenceHeap::next_id() const {
  drop_cancelled_top();
  if (heap_.empty()) {
    throw std::logic_error("EventQueue: next_id() on an empty queue");
  }
  return heap_.front().id;
}

bool ReferenceHeap::cancel(EventId id) {
  if (pending_.erase(id) == 0) return false;
  cancelled_.insert(id);
  --live_count_;
  return true;
}

void ReferenceHeap::clear() {
  heap_.clear();
  pending_.clear();
  cancelled_.clear();
  live_count_ = 0;
}

}  // namespace pushpull::des
