#include "des/event_queue.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace pushpull::des {

void EventQueue::push(Event event) {
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
  }
  heap_.push(Key{event.time, event.id, slot});
}

EventQueue::Slot EventQueue::remove_at(std::size_t pos) {
  const Key gone = heap_.erase(pos);
  slot_of_.erase(gone.id);
  free_.push_back(gone.slot);
  return gone.slot;
}

const EventQueue::Key& EventQueue::top(const char* op) const {
  if (heap_.empty()) {
    throw std::logic_error(std::string("EventQueue: ") + op +
                           "() on an empty queue");
  }
  return heap_.top();
}

Event EventQueue::pop() {
  const Key key = top("pop");
  const Slot slot = remove_at(0);
  return Event{key.time, key.id, std::move(actions_[slot])};
}

SimTime EventQueue::next_time() const { return top("next_time").time; }

EventId EventQueue::next_id() const { return top("next_id").id; }

bool EventQueue::cancel(EventId id) {
  const Slot* slot = slot_of_.find(id);
  if (slot == nullptr) return false;
  const Slot freed = remove_at(heap_.position(*slot));
  actions_[freed] = EventAction{};  // releases the closure's captures now
  return true;
}

void EventQueue::clear() {
  heap_.clear();
  actions_.clear();
  free_.clear();
  slot_of_.clear();
}

}  // namespace pushpull::des
