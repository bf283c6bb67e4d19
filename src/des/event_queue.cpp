#include "des/event_queue.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "des/reference_heap.hpp"

namespace pushpull::des {

EventQueue::EventQueue() = default;

EventQueue::EventQueue(EventQueueKind kind) {
  if (kind == EventQueueKind::kBinaryHeap) {
    reference_ = std::make_unique<ReferenceHeap>();
  }
}

EventQueue::EventQueue(EventQueue&&) noexcept = default;
EventQueue& EventQueue::operator=(EventQueue&&) noexcept = default;
EventQueue::~EventQueue() = default;

bool EventQueue::empty() const noexcept {
  return reference_ ? reference_->empty() : heap_.empty();
}

std::size_t EventQueue::size() const noexcept {
  return reference_ ? reference_->size() : heap_.size();
}

void EventQueue::place(std::size_t pos, const Key& key) noexcept {
  heap_[pos] = key;
  heap_pos_[key.slot] = static_cast<Slot>(pos);
}

void EventQueue::sift_up(std::size_t pos, Key key) noexcept {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(key, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, key);
}

void EventQueue::sift_down(std::size_t pos, Key key) noexcept {
  const std::size_t n = heap_.size();
  for (std::size_t child = 2 * pos + 1; child < n; child = 2 * pos + 1) {
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], key)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, key);
}

void EventQueue::push(Event event) {
  if (reference_) {
    reference_->push(std::move(event));
    return;
  }
  const bool reuse = !free_.empty();
  const Slot slot = reuse ? free_.back() : narrow_slot<Slot>(actions_.size());
  if (!slot_of_.insert(event.id, slot)) {
    throw std::logic_error("EventQueue: duplicate event id " +
                           std::to_string(event.id));
  }
  if (reuse) {
    free_.pop_back();
    actions_[slot] = std::move(event.action);
  } else {
    actions_.push_back(std::move(event.action));
    heap_pos_.push_back(0);
  }
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Key{event.time, event.id, slot});
}

EventQueue::Slot EventQueue::remove_at(std::size_t pos) {
  const Key gone = heap_[pos];
  const Key last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    // Refill the hole with the last key, sifted whichever way it belongs.
    if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
      sift_up(pos, last);
    } else {
      sift_down(pos, last);
    }
  }
  slot_of_.erase(gone.id);
  free_.push_back(gone.slot);
  return gone.slot;
}

const EventQueue::Key& EventQueue::top(const char* op) const {
  if (heap_.empty()) {
    throw std::logic_error(std::string("EventQueue: ") + op +
                           "() on an empty queue");
  }
  return heap_.front();
}

Event EventQueue::pop() {
  if (reference_) return reference_->pop();
  const Key key = top("pop");
  const Slot slot = remove_at(0);
  return Event{key.time, key.id, std::move(actions_[slot])};
}

SimTime EventQueue::next_time() const {
  return reference_ ? reference_->next_time() : top("next_time").time;
}

EventId EventQueue::next_id() const {
  return reference_ ? reference_->next_id() : top("next_id").id;
}

bool EventQueue::cancel(EventId id) {
  if (reference_) return reference_->cancel(id);
  const Slot* slot = slot_of_.find(id);
  if (slot == nullptr) return false;
  const Slot freed = remove_at(heap_pos_[*slot]);
  actions_[freed] = EventAction{};  // releases the closure's captures now
  return true;
}

void EventQueue::clear() {
  if (reference_) {
    reference_->clear();
    return;
  }
  heap_.clear();
  actions_.clear();
  heap_pos_.clear();
  free_.clear();
  slot_of_.clear();
}

}  // namespace pushpull::des
