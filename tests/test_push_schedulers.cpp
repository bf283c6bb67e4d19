// Unit tests for the push-side broadcast programs: flat round-robin,
// Broadcast Disks and the Square-Root Rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "catalog/catalog.hpp"
#include "catalog/length_model.hpp"
#include "sched/push/broadcast_disks.hpp"
#include "sched/push/flat.hpp"
#include "sched/push/push_scheduler.hpp"
#include "sched/push/square_root_rule.hpp"

namespace pushpull::sched {
namespace {

catalog::Catalog test_catalog(std::size_t n = 30, double theta = 1.0) {
  return catalog::Catalog(n, theta, catalog::LengthModel::paper_default(), 5);
}

// --------------------------------------------------------------------- flat

TEST(FlatPush, CyclesInRankOrder) {
  FlatPush flat(4);
  std::vector<catalog::ItemId> seq;
  for (int i = 0; i < 8; ++i) seq.push_back(flat.next());
  EXPECT_EQ(seq, (std::vector<catalog::ItemId>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(FlatPush, ResetRestarts) {
  FlatPush flat(3);
  (void)flat.next();
  (void)flat.next();
  flat.reset();
  EXPECT_EQ(flat.next(), 0u);
}

TEST(FlatPush, RejectsEmptyPushSet) {
  EXPECT_THROW(FlatPush(0), std::invalid_argument);
}

TEST(FlatPush, SingleItem) {
  FlatPush flat(1);
  EXPECT_EQ(flat.next(), 0u);
  EXPECT_EQ(flat.next(), 0u);
}

// ---------------------------------------------------------- broadcast disks

TEST(BroadcastDisks, EveryPushItemAppears) {
  const auto cat = test_catalog();
  BroadcastDisksPush disks(cat, 12, 3);
  std::vector<bool> seen(12, false);
  for (catalog::ItemId id : disks.major_cycle()) {
    ASSERT_LT(id, 12u);
    seen[id] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(BroadcastDisks, HotterDisksRecurMoreOften) {
  const auto cat = test_catalog();
  BroadcastDisksPush disks(cat, 12, 3);
  std::map<catalog::ItemId, int> freq;
  for (catalog::ItemId id : disks.major_cycle()) ++freq[id];
  // Item 0 is on the hottest disk (relative frequency 3), item 11 on the
  // coldest (frequency 1).
  EXPECT_EQ(freq[0], 3);
  EXPECT_EQ(freq[11], 1);
  EXPECT_GT(freq[0], freq[11]);
}

TEST(BroadcastDisks, NextWrapsAroundCycle) {
  const auto cat = test_catalog();
  BroadcastDisksPush disks(cat, 6, 2);
  const std::size_t cycle = disks.major_cycle().size();
  std::vector<catalog::ItemId> first;
  std::vector<catalog::ItemId> second;
  for (std::size_t i = 0; i < cycle; ++i) first.push_back(disks.next());
  for (std::size_t i = 0; i < cycle; ++i) second.push_back(disks.next());
  EXPECT_EQ(first, second);
}

TEST(BroadcastDisks, SingleDiskIsFlat) {
  const auto cat = test_catalog();
  BroadcastDisksPush disks(cat, 5, 1);
  std::vector<catalog::ItemId> seq;
  for (int i = 0; i < 5; ++i) seq.push_back(disks.next());
  EXPECT_EQ(seq, (std::vector<catalog::ItemId>{0, 1, 2, 3, 4}));
}

TEST(BroadcastDisks, MoreDisksThanItemsIsClamped) {
  const auto cat = test_catalog();
  BroadcastDisksPush disks(cat, 2, 5);
  std::vector<bool> seen(2, false);
  for (catalog::ItemId id : disks.major_cycle()) seen[id] = true;
  EXPECT_TRUE(seen[0]);
  EXPECT_TRUE(seen[1]);
}

TEST(BroadcastDisks, RejectsBadArguments) {
  const auto cat = test_catalog();
  EXPECT_THROW(BroadcastDisksPush(cat, 0, 3), std::invalid_argument);
  EXPECT_THROW(BroadcastDisksPush(cat, 5, 0), std::invalid_argument);
  EXPECT_THROW(BroadcastDisksPush(cat, 1000, 3), std::invalid_argument);
}

TEST(BroadcastDisks, ResetRestartsCycle) {
  const auto cat = test_catalog();
  BroadcastDisksPush disks(cat, 6, 2);
  const catalog::ItemId first = disks.next();
  (void)disks.next();
  disks.reset();
  EXPECT_EQ(disks.next(), first);
}

// --------------------------------------------------------- square-root rule

TEST(SquareRootRule, SpacingFollowsSqrtLawAcrossItems) {
  const auto cat = test_catalog(20, 1.0);
  SquareRootRulePush srr(cat, 10);
  // s_i / s_j should equal sqrt((L_i/P_i) / (L_j/P_j)).
  for (catalog::ItemId i = 1; i < 10; ++i) {
    const double expected =
        std::sqrt((cat.length(i) / cat.probability(i)) /
                  (cat.length(0) / cat.probability(0)));
    EXPECT_NEAR(srr.spacing(i) / srr.spacing(0), expected, 1e-9);
  }
}

TEST(SquareRootRule, PopularItemsBroadcastMoreOften) {
  const auto cat = test_catalog(30, 1.2);
  SquareRootRulePush srr(cat, 15);
  std::map<catalog::ItemId, int> freq;
  for (int i = 0; i < 3000; ++i) ++freq[srr.next()];
  EXPECT_GT(freq[0], freq[14]);
  // Every push item gets airtime — no starvation.
  for (catalog::ItemId id = 0; id < 15; ++id) EXPECT_GT(freq[id], 0);
}

TEST(SquareRootRule, FrequencyRatioTracksSqrtRule) {
  // With equal lengths the frequency ratio should approach
  // sqrt(P_0 / P_k).
  catalog::Catalog cat(std::vector<double>(10, 1.0), 1.0);
  SquareRootRulePush srr(cat, 10);
  std::map<catalog::ItemId, int> freq;
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++freq[srr.next()];
  const double sqrt_ratio = std::sqrt(cat.probability(0) / cat.probability(9));
  const double linear_ratio = cat.probability(0) / cat.probability(9);
  const double actual =
      static_cast<double>(freq[0]) / static_cast<double>(freq[9]);
  // The online greedy approximates the square-root optimum; with only ten
  // items the discretization bias is noticeable, so assert a band around
  // the sqrt law that excludes both the uniform (1) and the proportional
  // (P_0/P_9 = 10) alternatives.
  EXPECT_GT(actual, 0.6 * sqrt_ratio);
  EXPECT_LT(actual, 0.5 * (sqrt_ratio + linear_ratio));
}

TEST(SquareRootRule, ResetReplaysSequence) {
  const auto cat = test_catalog();
  SquareRootRulePush srr(cat, 8);
  std::vector<catalog::ItemId> first;
  for (int i = 0; i < 50; ++i) first.push_back(srr.next());
  srr.reset();
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(srr.next(), first[i]);
}

TEST(SquareRootRule, RejectsBadArguments) {
  const auto cat = test_catalog();
  EXPECT_THROW(SquareRootRulePush(cat, 0), std::invalid_argument);
  EXPECT_THROW(SquareRootRulePush(cat, 1000), std::invalid_argument);
}

// ------------------------------------------------------------------ factory

TEST(PushFactory, CreatesEachKind) {
  const auto cat = test_catalog();
  for (auto kind : {PushPolicyKind::kFlat, PushPolicyKind::kBroadcastDisks,
                    PushPolicyKind::kSquareRootRule}) {
    const auto sched = make_push_scheduler(kind, cat, 10);
    EXPECT_EQ(sched->name(), to_string(kind));
    EXPECT_EQ(parse_push_policy(to_string(kind)), kind) << to_string(kind);
    EXPECT_LT(sched->next(), 10u);
  }
  for (const char* name : {"", "unknown", "Flat", "broadcast_disks", "fcfs"}) {
    EXPECT_THROW((void)parse_push_policy(name), std::invalid_argument)
        << name;
  }
}

TEST(PushFactory, RejectsOversizedCutoff) {
  const auto cat = test_catalog();
  EXPECT_THROW(make_push_scheduler(PushPolicyKind::kFlat, cat, 1000),
               std::invalid_argument);
}

}  // namespace
}  // namespace pushpull::sched
