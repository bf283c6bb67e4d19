// Unit tests for the pull-queue selection policies, including the paper's
// importance factor (Eq. 1) and its queue-aware generalization (Eq. 6).
#include <gtest/gtest.h>

#include "sched/pull/policies.hpp"
#include "sched/pull/policy.hpp"

namespace pushpull::sched {
namespace {

PullEntry make_entry(catalog::ItemId item, double length,
                     std::size_t num_requests, double total_priority,
                     double first_arrival = 0.0, double popularity = 0.01) {
  PullEntry e;
  e.item = item;
  e.length = length;
  e.popularity = popularity;
  e.pending.resize(num_requests);
  e.total_priority = total_priority;
  e.first_arrival = first_arrival;
  return e;
}

const PullContext kCtx{100.0, 1.0};

// ------------------------------------------------------------------- basics

TEST(PullEntry, StretchMatchesDefinition) {
  const PullEntry e = make_entry(0, 2.0, 8, 1.0);
  EXPECT_DOUBLE_EQ(e.stretch(), 8.0 / 4.0);
  EXPECT_DOUBLE_EQ(e.num_requests(), 8.0);
}

TEST(Factory, NamesRoundTrip) {
  for (auto kind :
       {PullPolicyKind::kFcfs, PullPolicyKind::kMrf, PullPolicyKind::kStretch,
        PullPolicyKind::kPriority, PullPolicyKind::kRxw, PullPolicyKind::kLwf,
        PullPolicyKind::kImportance, PullPolicyKind::kImportanceQueueAware}) {
    const auto policy = make_pull_policy(kind, 0.5);
    EXPECT_EQ(policy->name(), to_string(kind));
    EXPECT_EQ(parse_pull_policy(to_string(kind)), kind) << to_string(kind);
  }
  for (const char* name : {"", "unknown", "FCFS", "importance_q", "flat"}) {
    EXPECT_THROW((void)parse_pull_policy(name), std::invalid_argument)
        << name;
  }
}

TEST(Factory, RejectsBadAlpha) {
  EXPECT_THROW(make_pull_policy(PullPolicyKind::kImportance, -0.1),
               std::invalid_argument);
  EXPECT_THROW(make_pull_policy(PullPolicyKind::kImportance, 1.1),
               std::invalid_argument);
  EXPECT_THROW(make_pull_policy(PullPolicyKind::kImportanceQueueAware, 2.0),
               std::invalid_argument);
}

// ----------------------------------------------------------------- policies

TEST(Fcfs, PrefersOldestFirstRequest) {
  FcfsPolicy policy;
  const auto old_entry = make_entry(1, 2.0, 1, 1.0, /*first_arrival=*/5.0);
  const auto new_entry = make_entry(2, 2.0, 9, 9.0, /*first_arrival=*/50.0);
  EXPECT_GT(policy.score(old_entry, kCtx), policy.score(new_entry, kCtx));
}

TEST(Mrf, PrefersMoreRequests) {
  MrfPolicy policy;
  EXPECT_GT(policy.score(make_entry(1, 2.0, 10, 1.0), kCtx),
            policy.score(make_entry(2, 2.0, 3, 99.0), kCtx));
}

TEST(Stretch, PrefersShortPopular) {
  StretchPolicy policy;
  // 6 requests over length 1 beats 8 requests over length 3.
  EXPECT_GT(policy.score(make_entry(1, 1.0, 6, 1.0), kCtx),
            policy.score(make_entry(2, 3.0, 8, 1.0), kCtx));
}

TEST(Stretch, QuadraticLengthPenalty) {
  StretchPolicy policy;
  const auto short_item = make_entry(1, 1.0, 1, 1.0);
  const auto long_item = make_entry(2, 4.0, 1, 1.0);
  EXPECT_DOUBLE_EQ(policy.score(short_item, kCtx) / policy.score(long_item, kCtx),
                   16.0);
}

TEST(Priority, PrefersHigherSummedPriority) {
  PriorityPolicy policy;
  EXPECT_GT(policy.score(make_entry(1, 5.0, 1, 6.0), kCtx),
            policy.score(make_entry(2, 1.0, 10, 5.0), kCtx));
}

TEST(Rxw, ProductOfRequestsAndWait) {
  RxwPolicy policy;
  PullContext ctx{100.0, 1.0};
  const auto entry = make_entry(1, 2.0, 4, 1.0, /*first_arrival=*/60.0);
  EXPECT_DOUBLE_EQ(policy.score(entry, ctx), 4.0 * 40.0);
}

TEST(Rxw, WaitGrowsWithClock) {
  RxwPolicy policy;
  const auto entry = make_entry(1, 2.0, 2, 1.0, 0.0);
  EXPECT_LT(policy.score(entry, PullContext{10.0, 1.0}),
            policy.score(entry, PullContext{20.0, 1.0}));
}

TEST(Lwf, TotalWaitAccumulatesOverPending) {
  LwfPolicy policy;
  PullEntry e = make_entry(1, 2.0, 0, 0.0);
  workload::Request r1;
  r1.arrival = 10.0;
  workload::Request r2;
  r2.arrival = 30.0;
  e.pending = {r1, r2};
  e.total_arrival = 40.0;
  // At now = 50: waits are 40 and 20.
  EXPECT_DOUBLE_EQ(policy.score(e, PullContext{50.0, 1.0}), 60.0);
}

TEST(Lwf, ManySmallWaitsCanBeatOneLongWait) {
  LwfPolicy policy;
  PullContext ctx{100.0, 1.0};
  // 5 requests waiting 10 each (total 50) beat 1 request waiting 40.
  PullEntry crowd = make_entry(1, 2.0, 0, 0.0);
  crowd.pending.resize(5);
  crowd.total_arrival = 5 * 90.0;
  PullEntry loner = make_entry(2, 2.0, 0, 0.0);
  loner.pending.resize(1);
  loner.total_arrival = 60.0;
  EXPECT_GT(policy.score(crowd, ctx), policy.score(loner, ctx));
}

// --------------------------------------------------------------- importance

TEST(Importance, MatchesEquationOne) {
  const double alpha = 0.3;
  ImportancePolicy policy(alpha);
  const auto e = make_entry(1, 2.0, 8, 7.0);
  const double expected = alpha * (8.0 / 4.0) + (1.0 - alpha) * 7.0;
  EXPECT_DOUBLE_EQ(policy.score(e, kCtx), expected);
}

TEST(Importance, AlphaOneIsStretch) {
  ImportancePolicy importance(1.0);
  StretchPolicy stretch;
  for (int i = 0; i < 5; ++i) {
    const auto e = make_entry(static_cast<catalog::ItemId>(i),
                              1.0 + i, static_cast<std::size_t>(2 * i + 1),
                              10.0 - i);
    EXPECT_DOUBLE_EQ(importance.score(e, kCtx), stretch.score(e, kCtx));
  }
}

TEST(Importance, AlphaZeroIsPriority) {
  ImportancePolicy importance(0.0);
  PriorityPolicy priority;
  for (int i = 0; i < 5; ++i) {
    const auto e = make_entry(static_cast<catalog::ItemId>(i),
                              1.0 + i, static_cast<std::size_t>(i + 1),
                              3.0 * i + 1.0);
    EXPECT_DOUBLE_EQ(importance.score(e, kCtx), priority.score(e, kCtx));
  }
}

TEST(Importance, AlphaInterpolatesMonotonically) {
  // An entry strong on stretch and weak on priority gains score with alpha.
  const auto strong_stretch = make_entry(1, 1.0, 9, 0.5);
  double prev = ImportancePolicy(0.0).score(strong_stretch, kCtx);
  for (double alpha : {0.25, 0.5, 0.75, 1.0}) {
    const double score = ImportancePolicy(alpha).score(strong_stretch, kCtx);
    EXPECT_GT(score, prev);
    prev = score;
  }
}

TEST(Importance, RejectsNanAlpha) {
  // A NaN passes `alpha < 0 || alpha > 1`; both Eq. 1 and Eq. 6 must still
  // refuse it rather than score every entry NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ImportancePolicy{nan}, std::invalid_argument);
  EXPECT_THROW(ImportanceQueueAwarePolicy{nan}, std::invalid_argument);
}

TEST(Importance, PriorityBreaksStretchTies) {
  ImportancePolicy policy(0.5);
  const auto low = make_entry(1, 2.0, 4, 2.0);
  const auto high = make_entry(2, 2.0, 4, 6.0);
  EXPECT_GT(policy.score(high, kCtx), policy.score(low, kCtx));
}

// ---------------------------------------------------- queue-aware (Eq. 6)

TEST(ImportanceQueueAware, MatchesEquationSix) {
  const double alpha = 0.4;
  ImportanceQueueAwarePolicy policy(alpha);
  PullContext ctx{0.0, 50.0};  // E[L_pull] = 50
  const auto e = make_entry(1, 2.0, 3, 4.0, 0.0, /*popularity=*/0.02);
  const double copies = 50.0 * 0.02;
  const double expected =
      alpha * copies / 4.0 + (1.0 - alpha) * copies * 4.0;
  EXPECT_DOUBLE_EQ(policy.score(e, ctx), expected);
}

TEST(ImportanceQueueAware, ReducesToEqOneWhenCopiesAreUnit) {
  // E[L_pull]·p_i = 1 makes Eq. 6 collapse to Eq. 1 with R_i replaced by
  // the unit expected copy count: α/L² + (1−α)·Q.
  const double alpha = 0.7;
  ImportanceQueueAwarePolicy q_aware(alpha);
  PullContext ctx{0.0, 100.0};
  const auto e = make_entry(1, 3.0, 1, 5.0, 0.0, /*popularity=*/0.01);
  const double expected = alpha * 1.0 / 9.0 + (1.0 - alpha) * 1.0 * 5.0;
  EXPECT_DOUBLE_EQ(q_aware.score(e, ctx), expected);
}

TEST(ImportanceQueueAware, PopularItemsScoreHigher) {
  ImportanceQueueAwarePolicy policy(0.5);
  PullContext ctx{0.0, 10.0};
  const auto popular = make_entry(1, 2.0, 1, 3.0, 0.0, 0.05);
  const auto obscure = make_entry(2, 2.0, 1, 3.0, 0.0, 0.001);
  EXPECT_GT(policy.score(popular, ctx), policy.score(obscure, ctx));
}

}  // namespace
}  // namespace pushpull::sched
