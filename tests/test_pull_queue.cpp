// Unit tests for the server's pull queue: per-item aggregation, policy
// extraction, index integrity under swap-removal, and the indexed heap's
// edge cases against the reference scan.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/pull_queue.hpp"
#include "sched/pull/policies.hpp"

namespace pushpull::core {
namespace {

workload::Request make_request(workload::RequestId id, catalog::ItemId item,
                               workload::ClassId cls, double arrival) {
  workload::Request r;
  r.id = id;
  r.item = item;
  r.cls = cls;
  r.arrival = arrival;
  return r;
}

const sched::PullContext kCtx{100.0, 1.0};

TEST(PullQueue, StartsEmpty) {
  PullQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.distinct_items(), 0u);
  EXPECT_EQ(q.total_requests(), 0u);
  sched::MrfPolicy policy;
  EXPECT_FALSE(q.extract_best(policy, kCtx).has_value());
}

TEST(PullQueue, AggregatesPerItem) {
  PullQueue q;
  q.add(make_request(1, 7, 0, 1.0), 3.0, 2.0, 0.05);
  q.add(make_request(2, 7, 2, 2.0), 1.0, 2.0, 0.05);
  q.add(make_request(3, 9, 1, 3.0), 2.0, 4.0, 0.01);

  EXPECT_EQ(q.distinct_items(), 2u);
  EXPECT_EQ(q.total_requests(), 3u);

  const auto* entry = q.find(7);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->pending.size(), 2u);
  EXPECT_DOUBLE_EQ(entry->total_priority, 4.0);
  EXPECT_DOUBLE_EQ(entry->first_arrival, 1.0);
  EXPECT_DOUBLE_EQ(entry->length, 2.0);
  EXPECT_DOUBLE_EQ(entry->popularity, 0.05);
}

TEST(PullQueue, FirstArrivalSticksToOldest) {
  PullQueue q;
  q.add(make_request(1, 3, 0, 10.0), 1.0, 1.0, 0.1);
  q.add(make_request(2, 3, 0, 20.0), 1.0, 1.0, 0.1);
  EXPECT_DOUBLE_EQ(q.find(3)->first_arrival, 10.0);
}

TEST(PullQueue, ExtractBestFollowsPolicy) {
  PullQueue q;
  // Item 1: 3 requests; item 2: 1 request with huge priority.
  for (int i = 0; i < 3; ++i) {
    q.add(make_request(static_cast<workload::RequestId>(i), 1, 2,
                       static_cast<double>(i)),
          1.0, 2.0, 0.1);
  }
  q.add(make_request(10, 2, 0, 0.5), 9.0, 2.0, 0.1);

  sched::MrfPolicy mrf;
  sched::PriorityPolicy prio;

  {
    PullQueue copy = q;
    const auto best = copy.extract_best(mrf, kCtx);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->item, 1u);
  }
  {
    PullQueue copy = q;
    const auto best = copy.extract_best(prio, kCtx);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->item, 2u);
  }
}

TEST(PullQueue, ExtractRemovesEntry) {
  PullQueue q;
  q.add(make_request(1, 5, 0, 1.0), 1.0, 1.0, 0.1);
  q.add(make_request(2, 6, 0, 2.0), 1.0, 1.0, 0.1);
  const auto out = q.extract(5);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->item, 5u);
  EXPECT_EQ(q.distinct_items(), 1u);
  EXPECT_EQ(q.total_requests(), 1u);
  EXPECT_EQ(q.find(5), nullptr);
  EXPECT_NE(q.find(6), nullptr);
}

TEST(PullQueue, ExtractMissingIsNullopt) {
  PullQueue q;
  q.add(make_request(1, 5, 0, 1.0), 1.0, 1.0, 0.1);
  EXPECT_FALSE(q.extract(99).has_value());
  EXPECT_EQ(q.total_requests(), 1u);
}

TEST(PullQueue, SwapRemovalKeepsIndexConsistent) {
  PullQueue q;
  for (catalog::ItemId item = 0; item < 10; ++item) {
    q.add(make_request(item, item, 0, static_cast<double>(item)), 1.0, 1.0,
          0.1);
  }
  // Remove from the middle repeatedly; remaining entries stay findable.
  EXPECT_TRUE(q.extract(4).has_value());
  EXPECT_TRUE(q.extract(0).has_value());
  EXPECT_TRUE(q.extract(9).has_value());
  for (catalog::ItemId item : {1u, 2u, 3u, 5u, 6u, 7u, 8u}) {
    const auto* entry = q.find(item);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->item, item);
  }
  EXPECT_EQ(q.distinct_items(), 7u);
}

TEST(PullQueue, TieBreaksTowardLowestItemId) {
  PullQueue q;
  q.add(make_request(1, 8, 0, 1.0), 2.0, 2.0, 0.1);
  q.add(make_request(2, 3, 0, 1.0), 2.0, 2.0, 0.1);
  sched::PriorityPolicy prio;  // equal scores
  const auto best = q.extract_best(prio, kCtx);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->item, 3u);
}

TEST(PullQueue, DrainOrderUnderMrfIsDescendingRequests) {
  PullQueue q;
  const std::size_t sizes[] = {1, 4, 2, 7, 3};
  workload::RequestId rid = 0;
  for (catalog::ItemId item = 0; item < 5; ++item) {
    for (std::size_t r = 0; r < sizes[item]; ++r) {
      q.add(make_request(rid++, item, 0, 1.0), 1.0, 1.0, 0.1);
    }
  }
  sched::MrfPolicy mrf;
  std::size_t prev = 100;
  while (!q.empty()) {
    const auto entry = q.extract_best(mrf, kCtx);
    ASSERT_TRUE(entry.has_value());
    EXPECT_LE(entry->pending.size(), prev);
    prev = entry->pending.size();
  }
}

TEST(PullQueue, ClearResets) {
  PullQueue q;
  q.add(make_request(1, 5, 0, 1.0), 1.0, 1.0, 0.1);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_requests(), 0u);
  // Reusable after clear.
  q.add(make_request(2, 5, 0, 2.0), 1.0, 1.0, 0.1);
  EXPECT_EQ(q.distinct_items(), 1u);
}

// ------------------------------------------- indexed heap vs reference scan

/// The default (indexed) queue beside a kScan reference twin: every call
/// goes to both, and every extraction is compared. Under PriorityPolicy an
/// entry's heap key is its summed priority, so a test sets keys exactly.
struct TwinQueues {
  PullQueue fast;
  PullQueue scan{PullQueue::SelectMode::kScan};
  workload::RequestId next_id = 0;

  void add(catalog::ItemId item, double priority) {
    const auto r = make_request(next_id++, item, 0, 1.0);
    fast.add(r, priority, 1.0, 0.1);
    scan.add(r, priority, 1.0, 0.1);
  }
  void extract(catalog::ItemId item) {
    const auto a = fast.extract(item);
    const auto b = scan.extract(item);
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_EQ(a->pending.size(), b->pending.size());
  }
  /// The winner's item id, the same from both queues.
  catalog::ItemId extract_best(const sched::PullPolicy& policy) {
    const auto a = fast.extract_best(policy, kCtx);
    const auto b = scan.extract_best(policy, kCtx);
    EXPECT_TRUE(a.has_value() && b.has_value());
    if (!a.has_value() || !b.has_value()) return 0;
    EXPECT_EQ(a->item, b->item);
    EXPECT_EQ(a->pending.size(), b->pending.size());
    EXPECT_EQ(fast.total_requests(), scan.total_requests());
    return a->item;
  }
  /// Every remaining winner in order.
  std::vector<catalog::ItemId> drain(const sched::PullPolicy& policy) {
    std::vector<catalog::ItemId> order;
    while (!scan.empty()) order.push_back(extract_best(policy));
    EXPECT_TRUE(fast.empty());
    return order;
  }
};

using Items = std::vector<catalog::ItemId>;

TEST(PullQueueHeap, InteriorDeleteSiftsTheReplacementUp) {
  // Slot order is already a heap, so the first build moves nothing:
  //            0:1000
  //      1:10         2:100
  //   3:5    4:6    5:90   6:85
  //  7:1
  // Extracting item 0 sinks item 7 to a leaf under item 5. Deleting item 3
  // then moves the last node, item 6 (85), into a hole whose parent is
  // item 1 (10): it must climb, or item 1 hides it from every later root.
  const double keys[] = {1000, 10, 100, 5, 6, 90, 85, 1};
  TwinQueues q;
  for (catalog::ItemId item = 0; item < 8; ++item) q.add(item, keys[item]);
  sched::PriorityPolicy policy;
  EXPECT_EQ(q.extract_best(policy), 0u);
  q.extract(3);
  EXPECT_EQ(q.drain(policy), (Items{2, 5, 6, 1, 4, 7}));
}

TEST(PullQueueHeap, RemoveRequestLowersTheRootsKey) {
  TwinQueues q;
  q.add(0, 1000.0);
  q.add(1, 50.0);
  q.add(1, 50.0);  // item 1's key is 100: the root once item 0 leaves
  q.add(2, 60.0);
  q.add(3, 70.0);
  sched::PriorityPolicy policy;
  EXPECT_EQ(q.extract_best(policy), 0u);
  ASSERT_TRUE(q.fast.remove_request(1, 1, 50.0));
  ASSERT_TRUE(q.scan.remove_request(1, 1, 50.0));
  EXPECT_EQ(q.drain(policy), (Items{3, 2, 1}));
}

TEST(PullQueueHeap, SwapRemoveCarriesTheBackEntrysDirtyMark) {
  TwinQueues q;
  const double keys[] = {1000, 10, 20, 30};
  for (catalog::ItemId item = 0; item < 4; ++item) q.add(item, keys[item]);
  sched::PriorityPolicy policy;
  EXPECT_EQ(q.extract_best(policy), 0u);  // slots now 3, 1, 2
  q.add(2, 100.0);  // the back entry is dirty: key 120, cached 20
  q.extract(1);     // and moves into the clean slot 1
  EXPECT_EQ(q.drain(policy), (Items{2, 3}));
}

TEST(PullQueueHeap, SwapRemoveMovesTheRoot) {
  TwinQueues q;
  const double keys[] = {1000, 10, 20, 30, 500, 5};
  for (catalog::ItemId item = 0; item < 6; ++item) q.add(item, keys[item]);
  sched::PriorityPolicy policy;
  EXPECT_EQ(q.extract_best(policy), 0u);  // slots now 5, 1, 2, 3, 4
  q.extract(1);    // the root, item 4, leaves the back slot for slot 1
  q.add(6, 1.0);   // and item 6 takes the back slot
  EXPECT_EQ(q.drain(policy), (Items{4, 3, 2, 5, 6}));
}

TEST(PullQueueHeap, ScanPolicyThenEntryOnlyBuildsTheHeapLate) {
  // RxW reads the context, so it scans and the heap is not kept; the first
  // entry-only extraction rekeys every slot and heapifies once.
  TwinQueues q;
  for (catalog::ItemId item = 0; item < 40; ++item) {
    q.add(item, static_cast<double>((item * 37) % 41));
  }
  const auto rxw = sched::make_pull_policy(sched::PullPolicyKind::kRxw);
  for (int i = 0; i < 5; ++i) (void)q.extract_best(*rxw);
  q.extract(17);
  q.add(3, 100.0);
  q.add(41, 7.0);
  sched::PriorityPolicy policy;
  for (int i = 0; i < 10; ++i) {
    (void)q.extract_best(policy);
    (void)q.extract_best(*rxw);  // the heap is kept through a scan now
    q.add(static_cast<catalog::ItemId>(50 + i), static_cast<double>(i * 9));
  }
  EXPECT_EQ(q.drain(policy).size(), 26u);
}

TEST(PullQueueHeap, NanKeyLatchesTheScan) {
  // A NaN key has no place in the heap's order, so selection takes the
  // scan's slot-order fold for the policy's tenure, while the NaN node is
  // sifted and deleted like any other.
  TwinQueues q;
  // Heapified, item 0 (5) would stay above the NaN and be the root.
  const double keys[] = {5, std::nan(""), 9, 7, 3, 8};
  for (catalog::ItemId item = 0; item < 6; ++item) q.add(item, keys[item]);
  sched::PriorityPolicy policy;
  EXPECT_EQ(q.drain(policy), (Items{2, 5, 3, 0, 4, 1}));
}

TEST(PullQueueHeap, ClearThenReuse) {
  TwinQueues q;
  sched::PriorityPolicy policy;
  for (catalog::ItemId item = 0; item < 20; ++item) {
    q.add(item, static_cast<double>(item % 7));
  }
  EXPECT_EQ(q.extract_best(policy), 6u);  // key 6, lowest such item
  q.fast.clear();
  q.scan.clear();
  for (catalog::ItemId item = 30; item > 20; --item) {
    q.add(item, static_cast<double>(item % 4));
  }
  EXPECT_EQ(q.drain(policy), (Items{23, 27, 22, 26, 30, 21, 25, 29, 24, 28}));
}

}  // namespace
}  // namespace pushpull::core
