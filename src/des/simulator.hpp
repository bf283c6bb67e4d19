#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "des/event.hpp"
#include "des/event_queue.hpp"
#include "obs/trace.hpp"

namespace pushpull::des {

/// A sorted stream of `count` arrivals, served by index: arrival i happens
/// at `time_of(i)` and runs `arrive(i)`. Times must be non-decreasing. The
/// stream knows nothing of what arrives; it is how a trace-driven model
/// hands the kernel its arrivals without materializing one Event each.
struct ArrivalStream {
  std::size_t count = 0;
  std::function<SimTime(std::size_t)> time_of;
  std::function<void(std::size_t)> arrive;
};

/// Sequential discrete-event simulator: a virtual clock plus a pending-event
/// set. Components schedule closures at absolute or relative virtual times;
/// `run` dispatches them in (time, insertion) order.
///
/// The kernel is deliberately minimal — model-level concepts (servers,
/// queues, channels) live in the modules that own them, which keeps the
/// kernel reusable for every experiment in this repository.
class Simulator {
 public:
  static constexpr SimTime kForever = std::numeric_limits<SimTime>::infinity();

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  /// Time of the earliest pending event, the arrival stream's head
  /// included; kForever when nothing is pending.
  [[nodiscard]] SimTime next_time() const {
    const SimTime arrival = arrivals_left() != 0 ? arrival_time_ : kForever;
    return queue_.empty() ? arrival : std::min(arrival, queue_.next_time());
  }
  [[nodiscard]] bool idle() const noexcept {
    return queue_.empty() && arrivals_left() == 0;
  }
  /// Pending events, counting the stream's arrivals not yet dispatched.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size() + arrivals_left();
  }
  [[nodiscard]] std::uint64_t dispatched_events() const noexcept {
    return dispatched_;
  }
  [[nodiscard]] std::uint64_t scheduled_events() const noexcept {
    return scheduled_;
  }
  [[nodiscard]] std::uint64_t cancelled_events() const noexcept {
    return cancelled_;
  }

  /// Installs (or, with a default-constructed Tracer, removes) the trace
  /// handle. The kernel emits only bounded `queue`-category "evq_level"
  /// marks when the pending-event set first reaches each power-of-two
  /// size from 1024 up — a high-water profile of event-set growth that
  /// costs one comparison per schedule when tracing is off.
  void set_tracer(obs::Tracer tracer) noexcept { tracer_ = tracer; }

  /// Times a popped event carried a timestamp before the current clock.
  /// step() still throws on the first one, so this reads 0 for any run that
  /// completed — the counter exists so harnesses can assert the property
  /// machine-verifiably instead of trusting the kernel.
  [[nodiscard]] std::uint64_t order_violations() const noexcept {
    return order_violations_;
  }

  /// Schedules `action` at absolute virtual time `when` (>= now()).
  /// A past or NaN time throws std::invalid_argument — scheduling into the
  /// past would silently rewind the clock on dispatch, so the invariant is
  /// enforced in every build type, not just with asserts.
  template <typename Fn>
  EventId schedule_at(SimTime when, Fn&& action) {
    if (!(when >= now_)) {
      throw std::invalid_argument("Simulator: schedule_at(" +
                                  std::to_string(when) +
                                  ") is in the past (now = " +
                                  std::to_string(now_) + ") or NaN");
    }
    const EventId id = next_id_++;
    queue_.push(Event{when, id, std::forward<Fn>(action)});
    ++scheduled_;
    note_pending_level();
    return id;
  }

  /// Registers a sorted arrival stream and returns the first id of the
  /// contiguous EventId block reserved for it: arrival i carries id
  /// `first + i`, exactly the ids `count` back-to-back schedule_at() calls
  /// would have drawn here. Each step merges the stream's head with the
  /// queue's earliest event by the usual (time, id) order, so dispatch
  /// order, the scheduled/dispatched/pending counts and the "evq_level"
  /// marks all equal those of scheduling every arrival up front — without
  /// holding an Event per arrival. Arrival ids are not cancellable.
  ///
  /// Throws std::invalid_argument, leaving the simulator untouched, when a
  /// time is NaN, before now(), or earlier than its predecessor; throws
  /// std::logic_error when a stream still has arrivals pending or when
  /// called from inside an arrival.
  EventId stream_arrivals(ArrivalStream stream);

  /// Schedules `action` after a non-negative delay.
  template <typename Fn>
  EventId schedule_in(SimTime delay, Fn&& action) {
    return schedule_at(now_ + delay, std::forward<Fn>(action));
  }

  /// Cancels a pending event. Returns false if it already fired or was
  /// already cancelled.
  bool cancel(EventId id) {
    const bool ok = queue_.cancel(id);
    if (ok) ++cancelled_;
    return ok;
  }

  /// Dispatches the next event, advancing the clock to it. Returns false if
  /// no event is pending.
  bool step();

  /// Runs until the event set drains or the clock would pass `horizon`.
  /// Events scheduled exactly at the horizon still fire.
  void run_until(SimTime horizon);

  /// Runs until the event set drains.
  void run() { run_until(kForever); }

  /// Stops the current run_until() loop after the in-flight event returns.
  void request_stop() noexcept { stop_requested_ = true; }

  /// Drops all pending events (the arrival stream included) and resets the
  /// clock; dispatched count is kept. Throws std::logic_error from inside an
  /// arrival, whose stream it would destroy.
  void reset();

 private:
  static constexpr std::size_t kEvqLevelBase = 1024;

  [[nodiscard]] std::size_t arrivals_left() const noexcept {
    return arrivals_.count - arrival_next_;
  }
  /// Emits an "evq_level" mark when the pending set first reaches the next
  /// power-of-two level: a high-water profile, one compare when no mark is
  /// due.
  void note_pending_level() {
    if (pending_events() >= evq_level_mark_) {
      tracer_.emit<obs::Category::kQueue>(
          now_, "evq_level", pending_events(), 0,
          static_cast<double>(evq_level_mark_));
      evq_level_mark_ *= 2;
    }
  }
  /// Dispatches the earliest pending event unless it lies past `horizon`.
  /// Returns false when nothing was dispatched.
  bool dispatch_next(SimTime horizon);
  void dispatch_arrival();

  EventQueue queue_;
  ArrivalStream arrivals_;
  std::size_t arrival_next_ = 0;     // index of the stream's head
  SimTime arrival_time_ = 0.0;       // time of the stream's head
  EventId arrival_first_id_ = 0;     // id of arrival 0
  bool in_arrival_ = false;          // an arrive() callback is running
  SimTime now_ = 0.0;
  EventId next_id_ = 1;
  std::uint64_t dispatched_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t order_violations_ = 0;
  bool stop_requested_ = false;
  obs::Tracer tracer_;
  std::size_t evq_level_mark_ = kEvqLevelBase;
};

}  // namespace pushpull::des
