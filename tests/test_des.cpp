// Unit tests for the discrete-event kernel: ordering, FIFO tie-breaking,
// cancellation, horizons, stop requests and reuse.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "des/event_queue.hpp"
#include "des/id_map.hpp"
#include "des/simulator.hpp"

namespace pushpull::des {
namespace {

// --------------------------------------------------------------- EventQueue

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(Event{5.0, 1, [] {}});
  q.push(Event{1.0, 2, [] {}});
  q.push(Event{3.0, 3, [] {}});
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 3.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 5.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesAreFifo) {
  EventQueue q;
  q.push(Event{2.0, 10, [] {}});
  q.push(Event{2.0, 11, [] {}});
  q.push(Event{2.0, 12, [] {}});
  EXPECT_EQ(q.pop().id, 10u);
  EXPECT_EQ(q.pop().id, 11u);
  EXPECT_EQ(q.pop().id, 12u);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  q.push(Event{1.0, 1, [] {}});
  q.push(Event{2.0, 2, [] {}});
  EXPECT_TRUE(q.cancel(1));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().id, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelUnknownIsFalse) {
  EventQueue q;
  q.push(Event{1.0, 1, [] {}});
  EXPECT_FALSE(q.cancel(99));
  EXPECT_FALSE(q.cancel(1) && q.cancel(1));  // second cancel fails
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  q.push(Event{1.0, 1, [] {}});
  q.push(Event{2.0, 2, [] {}});
  q.cancel(1);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, NextTimeIsConstCorrect) {
  // next_time() is a pure query, so it must be callable through a const
  // reference. Pinned at compile time, then exercised through a const view
  // over a queue whose top was cancelled.
  static_assert(
      std::is_invocable_r_v<SimTime, decltype(&EventQueue::next_time),
                            const EventQueue&>,
      "EventQueue::next_time must be const-qualified");
  EventQueue q;
  q.push(Event{2.0, 1, [] {}});
  q.push(Event{4.0, 2, [] {}});
  q.cancel(1);
  const EventQueue& view = q;
  EXPECT_DOUBLE_EQ(view.next_time(), 4.0);
  // The query through the const view changed nothing observable.
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().id, 2u);
}

TEST(EventQueue, SlotIndexBeyondSlotTypeRangeThrows) {
  // The slot type's maximum is the "no slot" marker; one index short of
  // it is the last usable slot, and anything beyond throws, not wraps.
  EXPECT_EQ(narrow_slot<std::uint8_t>(254), 254u);
  EXPECT_THROW((void)narrow_slot<std::uint8_t>(255), std::length_error);
  EXPECT_THROW((void)narrow_slot<std::uint8_t>(256), std::length_error);
  EXPECT_EQ(narrow_slot<std::uint32_t>(0xFFFFFFFEu), 0xFFFFFFFEu);
  EXPECT_THROW((void)narrow_slot<std::uint32_t>(std::size_t{0xFFFFFFFFu}),
               std::length_error);
}

TEST(EventQueue, ClearEmptiesEverything) {
  EventQueue q;
  q.push(Event{1.0, 1, [] {}});
  q.push(Event{2.0, 2, [] {}});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

// ---------------------------------------------------------------- Simulator

TEST(Simulator, RunsEventsInOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_in(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulator, SameTimeFifo) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, NestedSchedulingAtCurrentTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_in(0.0, [&] { order.push_back(2); });
  });
  sim.schedule_at(2.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RunUntilHonorsHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending_events(), 1u);
  // Event exactly at the horizon still fires on the next call.
  sim.run_until(10.0);
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockToHorizonWhenDrained) {
  Simulator sim;
  sim.schedule_at(1.0, [] {});
  sim.run_until(7.0);
  EXPECT_DOUBLE_EQ(sim.now(), 7.0);
}

TEST(Simulator, CancelPreventsDispatch) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelOfArrivalOrUnknownIdIsFalse) {
  Simulator sim;
  const std::vector<SimTime> arrivals = {1.0, 2.0};
  const EventId first = sim.stream_arrivals(
      {arrivals.size(), [&arrivals](std::size_t i) { return arrivals[i]; },
       [](std::size_t) {}});
  const EventId timer = sim.schedule_at(3.0, [] {});
  EXPECT_FALSE(sim.cancel(first));      // streamed arrivals are not
  EXPECT_FALSE(sim.cancel(first + 1));  // cancellable
  EXPECT_FALSE(sim.cancel(timer + 1));  // never scheduled
  EXPECT_EQ(sim.cancelled_events(), 0u);
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.cancel(timer));
  sim.run();
  EXPECT_EQ(sim.dispatched_events(), 2u);
}

TEST(Simulator, RequestStopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.request_stop();
  });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  // A subsequent run resumes from where we stopped.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, NextTimeSeesQueueAndStreamAndSkipsCancelled) {
  Simulator sim;
  EXPECT_EQ(sim.next_time(), Simulator::kForever);
  const std::vector<SimTime> arrivals = {2.0, 5.0};
  sim.stream_arrivals({arrivals.size(),
                       [&arrivals](std::size_t i) { return arrivals[i]; },
                       [](std::size_t) {}});
  EXPECT_EQ(sim.next_time(), 2.0);
  const EventId early = sim.schedule_at(1.0, [] {});
  EXPECT_EQ(sim.next_time(), 1.0);
  sim.cancel(early);
  EXPECT_EQ(sim.next_time(), 2.0);
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(sim.next_time(), 5.0);
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(sim.next_time(), Simulator::kForever);
}

TEST(Simulator, StepDispatchesOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, DispatchedEventsCounts) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.dispatched_events(), 10u);
}

TEST(Simulator, ScheduledAndCancelledCounters) {
  Simulator sim;
  const EventId a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.scheduled_events(), 2u);
  EXPECT_EQ(sim.cancelled_events(), 0u);
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_FALSE(sim.cancel(a));  // double-cancel counts once
  EXPECT_EQ(sim.cancelled_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.dispatched_events(), 1u);
  EXPECT_EQ(sim.scheduled_events(), 2u);  // lifetime total, not pending
}

TEST(Simulator, ResetDropsPendingAndClock) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(5.0, [&] { fired = true; });
  sim.reset();
  EXPECT_TRUE(sim.idle());
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventChainTerminates) {
  // A self-rescheduling process that stops itself after N steps — the shape
  // of the hybrid server's push loop.
  Simulator sim;
  int steps = 0;
  std::function<void()> tick = [&] {
    if (++steps < 100) sim.schedule_in(1.0, tick);
  };
  sim.schedule_at(0.0, tick);
  sim.run();
  EXPECT_EQ(steps, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
}

}  // namespace
}  // namespace pushpull::des
