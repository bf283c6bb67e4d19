// Differential suite proving the indexed-heap EventQueue is observably
// identical to des::ReferenceHeap, the seed structure: same pop sequence
// (time AND id), same next_time() and next_id() at every step,
// same size/empty, same cancel results — over 1000 seeded random schedules
// exercising bursty times, duplicate timestamps, interleaved
// cancellations, far-future jumps, and clear/reuse. Eager cancellation
// gets its own cases (last key, reverse order, slot reuse, id-map growth),
// and the id→slot map is checked against std::map directly.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "des/event_queue.hpp"
#include "des/id_map.hpp"
#include "des/reference_heap.hpp"
#include "rng/uniform.hpp"
#include "rng/xoshiro256ss.hpp"

namespace pushpull::des {
namespace {

/// Asserts every observable query agrees between the two queues.
void expect_agree(const ReferenceHeap& ref, const EventQueue& idx,
                  std::uint64_t seed, std::size_t step) {
  ASSERT_EQ(ref.empty(), idx.empty()) << "seed " << seed << " step " << step;
  ASSERT_EQ(ref.size(), idx.size()) << "seed " << seed << " step " << step;
  if (!ref.empty()) {
    ASSERT_EQ(ref.next_time(), idx.next_time())
        << "seed " << seed << " step " << step;
    ASSERT_EQ(ref.next_id(), idx.next_id())
        << "seed " << seed << " step " << step;
  }
}

/// Pops one event from each queue and asserts they agree.
void expect_same_pop(ReferenceHeap& ref, EventQueue& idx, std::uint64_t seed,
                     std::size_t step) {
  const Event a = ref.pop();
  const Event b = idx.pop();
  ASSERT_EQ(a.time, b.time) << "seed " << seed << " step " << step;
  ASSERT_EQ(a.id, b.id) << "seed " << seed << " step " << step;
}

/// One random schedule: pushes with bursty/duplicate/sparse times,
/// interleaved pops, cancels and the occasional clear, comparing the
/// queues after every operation.
void run_schedule(std::uint64_t seed, std::size_t ops) {
  rng::Xoshiro256ss eng(seed);
  ReferenceHeap ref;
  EventQueue idx;
  EventId next_id = 1;
  std::vector<EventId> live;  // superset: may contain fired/cancelled ids
  double base = 0.0;

  for (std::size_t step = 0; step < ops; ++step) {
    const double r = rng::uniform01(eng);
    if (r < 0.55 || ref.empty()) {
      // Push. Time pattern: duplicates, micro-steps, normal bursts, rare
      // huge jumps, and rare rewinds below the current base.
      const double shape = rng::uniform01(eng);
      if (shape < 0.25) {
        // duplicate timestamp: keep base
      } else if (shape < 0.5) {
        base += rng::uniform01(eng) * 1e-3;
      } else if (shape < 0.9) {
        base += rng::uniform01(eng) * 10.0;
      } else if (shape < 0.97) {
        base += rng::uniform01(eng) * 1e6;
      }
      double when = base;
      if (shape >= 0.97) {
        when = base * rng::uniform01(eng);  // rewind into the past
      }
      const EventId id = next_id++;
      ref.push(Event{when, id, [] {}});
      idx.push(Event{when, id, [] {}});
      live.push_back(id);
    } else if (r < 0.80) {
      expect_same_pop(ref, idx, seed, step);
      if (::testing::Test::HasFatalFailure()) return;
    } else if (r < 0.97) {
      // Cancel a random (possibly stale) id; results must match.
      if (!live.empty()) {
        const std::size_t pick = static_cast<std::size_t>(
            rng::uniform_below(eng, live.size()));
        ASSERT_EQ(ref.cancel(live[pick]), idx.cancel(live[pick]))
            << "seed " << seed << " step " << step;
      }
    } else {
      ref.clear();
      idx.clear();
      live.clear();
      base = 0.0;
    }
    expect_agree(ref, idx, seed, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Drain both completely: full pop order must match.
  while (!ref.empty()) {
    expect_same_pop(ref, idx, seed, ops);
    expect_agree(ref, idx, seed, ops);
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_TRUE(idx.empty());
}

TEST(EventQueueDiff, ThousandSeededRandomSchedules) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    run_schedule(seed, 60);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EventQueueDiff, LongSchedulesCrossResizeThresholds) {
  // Enough pushes to grow the slab and the id map through several
  // doublings, then drain back to empty.
  for (std::uint64_t seed = 2000; seed < 2010; ++seed) {
    run_schedule(seed, 3000);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EventQueueDiff, DuplicateTimestampsPopFifo) {
  EventQueue q;
  for (EventId id = 1; id <= 64; ++id) q.push(Event{5.0, id, [] {}});
  for (EventId id = 1; id <= 64; ++id) {
    ASSERT_EQ(q.next_time(), 5.0);
    ASSERT_EQ(q.next_id(), id);
    ASSERT_EQ(q.pop().id, id);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueDiff, CancelOfCurrentMinimumAdvances) {
  EventQueue q;
  q.push(Event{1.0, 1, [] {}});
  q.push(Event{2.0, 2, [] {}});
  ASSERT_EQ(q.next_time(), 1.0);
  EXPECT_TRUE(q.cancel(1));
  EXPECT_FALSE(q.cancel(1));
  ASSERT_EQ(q.next_time(), 2.0);
  ASSERT_EQ(q.next_id(), 2u);
  EXPECT_EQ(q.pop().id, 2u);
  EXPECT_TRUE(q.empty());
}

template <typename Queue>
void expect_duplicate_id_throws() {
  Queue q;
  q.push(Event{1.0, 7, [] {}});
  EXPECT_THROW(q.push(Event{2.0, 7, [] {}}), std::logic_error);
  // The rejected push left the queue as it was.
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().time, 1.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueDiff, DuplicateIdThrowsLikeHeap) {
  expect_duplicate_id_throws<EventQueue>();
  expect_duplicate_id_throws<ReferenceHeap>();
}

template <typename Queue>
void expect_empty_queries_throw() {
  Queue q;
  EXPECT_THROW((void)q.pop(), std::logic_error);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
  EXPECT_THROW((void)q.next_id(), std::logic_error);
  q.push(Event{1.0, 1, [] {}});
  (void)q.pop();
  EXPECT_THROW((void)q.pop(), std::logic_error);
  EXPECT_THROW((void)q.next_id(), std::logic_error);
  q.push(Event{2.0, 2, [] {}});
  ASSERT_TRUE(q.cancel(2));
  EXPECT_THROW((void)q.next_time(), std::logic_error);
}

TEST(EventQueueDiff, EmptyPopAndNextTimeThrowLikeHeap) {
  expect_empty_queries_throw<EventQueue>();
  expect_empty_queries_throw<ReferenceHeap>();
}

TEST(EventQueueDiff, InfiniteTimesLandInOverflowAndStillOrder) {
  constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
  EventQueue q;
  q.push(Event{kInf, 1, [] {}});
  q.push(Event{3.0, 2, [] {}});
  q.push(Event{kInf, 3, [] {}});
  EXPECT_EQ(q.pop().id, 2u);
  EXPECT_EQ(q.next_time(), kInf);
  EXPECT_EQ(q.pop().id, 1u);  // FIFO among equal (infinite) times
  EXPECT_EQ(q.pop().id, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueDiff, ClearThenReuse) {
  EventQueue q;
  for (EventId id = 1; id <= 100; ++id) {
    q.push(Event{static_cast<SimTime>(id) * 1e5, id, [] {}});
  }
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.cancel(50));  // cleared ids are gone
  q.push(Event{0.25, 101, [] {}});
  EXPECT_EQ(q.next_time(), 0.25);
  EXPECT_EQ(q.pop().id, 101u);
}

TEST(EventQueueDiff, MovedFromQueueIsEmptyAndReusable) {
  EventQueue a;
  a.push(Event{2.0, 1, [] {}});
  a.push(Event{1.0, 2, [] {}});
  EventQueue b(std::move(a));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_TRUE(a.empty());  // the moved-from state is pinned
  EXPECT_FALSE(a.cancel(1));
  a.push(Event{3.0, 1, [] {}});  // id 1 is b's now, not a's
  EXPECT_TRUE(b.cancel(1));
  a = std::move(b);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.pop().id, 2u);
  EXPECT_TRUE(a.empty());
}

// ------------------------------------------------------------ eager cancel

TEST(EventQueueDiff, CancelTheLastKey) {
  // Increasing times keep every key where it was appended, so the newest
  // id's key is the heap's last: removing it needs no refill.
  ReferenceHeap ref;
  EventQueue idx;
  for (EventId id = 1; id <= 9; ++id) {
    ref.push(Event{static_cast<SimTime>(id), id, [] {}});
    idx.push(Event{static_cast<SimTime>(id), id, [] {}});
  }
  for (EventId id = 9; id >= 6; --id) {
    ASSERT_EQ(ref.cancel(id), idx.cancel(id));
    expect_agree(ref, idx, 0, id);
  }
  EXPECT_FALSE(idx.cancel(9));
  while (!ref.empty()) {
    expect_same_pop(ref, idx, 0, 0);
    expect_agree(ref, idx, 0, 0);
  }
  EXPECT_TRUE(idx.empty());
}

TEST(EventQueueDiff, CancelEveryPendingEventInReverseOrder) {
  rng::Xoshiro256ss eng(77);
  ReferenceHeap ref;
  EventQueue idx;
  constexpr EventId kCount = 500;
  for (EventId id = 1; id <= kCount; ++id) {
    // Few distinct times, so many keys tie on time and order by id.
    const SimTime when = static_cast<SimTime>(rng::uniform_below(eng, 40));
    ref.push(Event{when, id, [] {}});
    idx.push(Event{when, id, [] {}});
  }
  for (EventId id = kCount; id >= 1; --id) {
    ASSERT_TRUE(idx.cancel(id)) << id;
    ASSERT_TRUE(ref.cancel(id)) << id;
    expect_agree(ref, idx, 77, id);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(idx.empty());
  for (EventId id = 1; id <= kCount; ++id) ASSERT_FALSE(idx.cancel(id));
  // The emptied queue is fully usable again.
  idx.push(Event{1.5, kCount + 1, [] {}});
  idx.push(Event{0.5, kCount + 2, [] {}});
  EXPECT_EQ(idx.pop().id, kCount + 2);
  EXPECT_EQ(idx.pop().id, kCount + 1);
}

TEST(EventQueueDiff, ReusedSlotNeverRevivesTheOldId) {
  EventQueue q;
  int fired_old = 0;
  int fired_new = 0;
  q.push(Event{1.0, 1, [&] { ++fired_old; }});
  q.push(Event{2.0, 2, [] {}});
  ASSERT_TRUE(q.cancel(1));  // frees id 1's slot
  q.push(Event{0.5, 3, [&] { ++fired_new; }});  // takes that slot
  EXPECT_FALSE(q.cancel(1));  // the old id stays dead
  EXPECT_EQ(q.size(), 2u);
  Event first = q.pop();
  EXPECT_EQ(first.id, 3u);
  first.action();
  EXPECT_EQ(fired_new, 1);
  EXPECT_EQ(fired_old, 0);
  // A fired id's slot is reused the same way.
  q.push(Event{3.0, 4, [] {}});
  EXPECT_FALSE(q.cancel(3));
  EXPECT_TRUE(q.cancel(4));
  EXPECT_EQ(q.pop().id, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueDiff, IdMapGrowsAndShrinksAcrossManyCancels) {
  // Waves of pushes grow the pending set (and the id map) to thousands,
  // then seeded cancels and pops shrink it back; the queues must agree
  // throughout.
  rng::Xoshiro256ss eng(4242);
  ReferenceHeap ref;
  EventQueue idx;
  EventId next_id = 1;
  std::vector<EventId> pending;
  std::size_t step = 0;
  for (int wave = 0; wave < 4; ++wave) {
    const std::size_t target = 1000u << wave;
    while (pending.size() < target) {
      const SimTime when = rng::uniform01(eng) * 100.0;
      ref.push(Event{when, next_id, [] {}});
      idx.push(Event{when, next_id, [] {}});
      pending.push_back(next_id++);
    }
    expect_agree(ref, idx, 4242, step++);
    while (pending.size() > 10) {
      const std::size_t pick = static_cast<std::size_t>(
          rng::uniform_below(eng, pending.size()));
      const EventId id = pending[pick];
      pending[pick] = pending.back();
      pending.pop_back();
      ASSERT_TRUE(ref.cancel(id));
      ASSERT_TRUE(idx.cancel(id));
      ASSERT_FALSE(idx.cancel(id));
      if (pending.size() % 97 == 0) {
        expect_agree(ref, idx, 4242, step++);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  while (!ref.empty()) {
    expect_same_pop(ref, idx, 4242, step++);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(idx.empty());
}

// ------------------------------------------------------------------ IdMap

TEST(IdMapDiff, RandomOpsMatchStdMap) {
  // Thousands of live keys in a table at most half full form clusters,
  // some wrapping past the last bucket, so erase's backward shift runs
  // through both of its cases.
  rng::Xoshiro256ss eng(99);
  IdMap<std::uint32_t> map;
  std::map<std::uint64_t, std::uint32_t> oracle;
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t key =
        rng::uniform_below(eng, 3000) * (op % 2 == 0 ? 1 : 0x10001);
    const double dice = rng::uniform01(eng);
    if (dice < 0.45) {
      const auto value = static_cast<std::uint32_t>(op);
      ASSERT_EQ(map.insert(key, value), oracle.emplace(key, value).second);
    } else if (dice < 0.9) {
      ASSERT_EQ(map.erase(key), oracle.erase(key) == 1);
    } else {
      ++map[key];
      ++oracle[key];
    }
    ASSERT_EQ(map.size(), oracle.size());
    const auto it = oracle.find(key);
    const std::uint32_t* found = map.find(key);
    ASSERT_EQ(found != nullptr, it != oracle.end());
    if (found != nullptr) {
      ASSERT_EQ(*found, it->second);
    }
  }
  for (const auto& [key, value] : oracle) {
    const std::uint32_t* found = map.find(key);
    ASSERT_NE(found, nullptr);
    ASSERT_EQ(*found, value);
  }
  ASSERT_FALSE(oracle.empty());
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.contains(oracle.begin()->first));
}

}  // namespace
}  // namespace pushpull::des
