// Unit tests for the statistics substrate: Welford accumulators, histograms,
// time series and the per-class collector.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "metrics/class_stats.hpp"
#include "metrics/histogram.hpp"
#include "metrics/timeseries.hpp"
#include "metrics/welford.hpp"

namespace pushpull::metrics {
namespace {

// ------------------------------------------------------------------ Welford

TEST(Welford, EmptyIsZero) {
  Welford w;
  EXPECT_TRUE(w.empty());
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.ci_half_width(), 0.0);
}

TEST(Welford, KnownMoments) {
  Welford w;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.add(x);
  EXPECT_EQ(w.count(), 8u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.sum(), 40.0);
  // Population variance is 4 ⇒ sample variance is 32/7.
  EXPECT_NEAR(w.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(w.min(), 2.0);
  EXPECT_DOUBLE_EQ(w.max(), 9.0);
}

TEST(Welford, SingleSample) {
  Welford w;
  w.add(3.5);
  EXPECT_DOUBLE_EQ(w.mean(), 3.5);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.min(), 3.5);
  EXPECT_DOUBLE_EQ(w.max(), 3.5);
}

TEST(Welford, MergeMatchesPooled) {
  Welford a;
  Welford b;
  Welford pooled;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i * 0.7) * 10.0;
    (i % 2 ? a : b).add(x);
    pooled.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_NEAR(a.mean(), pooled.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), pooled.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), pooled.min());
  EXPECT_DOUBLE_EQ(a.max(), pooled.max());
}

TEST(Welford, MergeWithEmpty) {
  Welford a;
  a.add(1.0);
  a.add(2.0);
  Welford empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(Welford, CiShrinksWithSamples) {
  Welford small;
  Welford large;
  for (int i = 0; i < 10; ++i) small.add(i % 3);
  for (int i = 0; i < 1000; ++i) large.add(i % 3);
  EXPECT_GT(small.ci_half_width(), large.ci_half_width());
}

TEST(Welford, NumericallyStableForLargeOffsets) {
  Welford w;
  for (int i = 0; i < 1000; ++i) {
    w.add(1e9 + static_cast<double>(i % 2));
  }
  EXPECT_NEAR(w.variance(), 0.25025, 1e-3);
}

// ---------------------------------------------------------------- Histogram

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram(5.0, 5.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 10.0, 0), std::invalid_argument);
}

TEST(Histogram, BinsValues) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(1.5);
  h.add(1.7);
  h.add(9.9);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 2u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.count(), 4u);
}

TEST(Histogram, TracksOverUnderflow) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);
  h.add(10.0);  // hi is exclusive
  h.add(100.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, BinBounds) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, MedianOfUniformIsMidpoint) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.quantile(0.1), 10.0, 1.5);
}

TEST(Histogram, QuantileEdges) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty
  h.add(5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
}

// --------------------------------------------------------------- TimeSeries

TEST(TimeSeries, TimeWeightedMean) {
  TimeSeries ts;
  ts.add(0.0, 2.0);   // holds for 5 units
  ts.add(5.0, 10.0);  // holds for 5 units
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(10.0), 6.0);
}

TEST(TimeSeries, UnequalHoldTimes) {
  TimeSeries ts;
  ts.add(0.0, 0.0);  // 9 units at 0
  ts.add(9.0, 10.0);  // 1 unit at 10
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(10.0), 1.0);
}

TEST(TimeSeries, EmptyIsZero) {
  TimeSeries ts;
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(10.0), 0.0);
}

TEST(TimeSeries, SingleSampleHoldsToEnd) {
  TimeSeries ts;
  ts.add(2.0, 7.0);
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(12.0), 7.0);
}

// ----------------------------------------------------------- ClassCollector

TEST(ClassCollector, RecordsPerClass) {
  ClassCollector collector(3);
  collector.record_arrival(0);
  collector.record_arrival(0);
  collector.record_arrival(2);
  collector.record_served(0, 5.0, /*via_push=*/true);
  collector.record_served(0, 7.0, /*via_push=*/false);
  collector.record_blocked(2);

  EXPECT_EQ(collector.at(0).arrived, 2u);
  EXPECT_EQ(collector.at(0).served, 2u);
  EXPECT_EQ(collector.at(0).served_push, 1u);
  EXPECT_EQ(collector.at(0).served_pull, 1u);
  EXPECT_DOUBLE_EQ(collector.at(0).wait.mean(), 6.0);
  EXPECT_EQ(collector.at(2).blocked, 1u);
  EXPECT_EQ(collector.at(1).arrived, 0u);
}

TEST(ClassCollector, AggregatePoolsClasses) {
  ClassCollector collector(2);
  collector.record_arrival(0);
  collector.record_arrival(1);
  collector.record_served(0, 2.0, true);
  collector.record_served(1, 4.0, false);
  const ClassStats total = collector.aggregate();
  EXPECT_EQ(total.arrived, 2u);
  EXPECT_EQ(total.served, 2u);
  EXPECT_DOUBLE_EQ(total.wait.mean(), 3.0);
}

void expect_same_welford(const Welford& a, const Welford& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.m2(), b.m2());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(ClassCollector, TailQuantilesOffSkipsOnlyTheSketches) {
  ClassCollector with(3);
  ClassCollector without(3, /*tail_quantiles=*/false);
  // Every record_* call, on every class, with and without timestamps.
  double now = 0.0;
  for (std::uint32_t i = 0; i < 600; ++i) {
    const ClassId cls = i % 3;
    const double wait = static_cast<double>((i * 37) % 101) / 7.0;
    now += static_cast<double>((i * 13) % 17) / 5.0;
    const double stamp = i % 11 == 0 ? -1.0 : now;
    for (ClassCollector* c : {&with, &without}) {
      c->record_arrival(cls);
      switch (i % 9) {
        case 0: c->record_blocked(cls); break;
        case 1: c->record_abandoned(cls); break;
        case 2: c->record_corrupted(cls); c->record_retry(cls); break;
        case 3: c->record_shed(cls); break;
        case 4: c->record_lost(cls); break;
        case 5: c->record_rejected(cls); c->record_stormed(cls); break;
        default: c->record_served(cls, wait, i % 2 == 0, stamp); break;
      }
    }
  }
  for (ClassId cls = 0; cls < 3; ++cls) {
    const ClassStats& a = with.at(cls);
    const ClassStats& b = without.at(cls);
    for (const auto field :
         {&ClassStats::arrived, &ClassStats::served, &ClassStats::served_push,
          &ClassStats::served_pull, &ClassStats::blocked,
          &ClassStats::abandoned, &ClassStats::corrupted,
          &ClassStats::retries, &ClassStats::shed, &ClassStats::lost,
          &ClassStats::rejected, &ClassStats::stormed}) {
      EXPECT_EQ(a.*field, b.*field) << "class " << cls;
    }
    expect_same_welford(a.wait, b.wait);
    expect_same_welford(a.gap, b.gap);
    ASSERT_GT(a.served, 0u);
    ASSERT_GT(a.gap.count(), 0u);
    for (const P2Quantile* sketch :
         {&a.wait_p50, &a.wait_p95, &a.wait_p99}) {
      EXPECT_EQ(sketch->count(), a.served);
    }
    EXPECT_EQ(a.gap_p99.count(), a.gap.count());
    for (const P2Quantile* sketch :
         {&b.wait_p50, &b.wait_p95, &b.wait_p99, &b.gap_p99}) {
      EXPECT_EQ(sketch->count(), 0u);
    }
  }
}

TEST(ClassStats, BlockingRatio) {
  ClassStats stats;
  stats.served = 8;
  stats.blocked = 2;
  EXPECT_DOUBLE_EQ(stats.blocking_ratio(), 0.2);
  ClassStats empty;
  EXPECT_DOUBLE_EQ(empty.blocking_ratio(), 0.0);
}

TEST(ClassStats, Outstanding) {
  ClassStats stats;
  stats.arrived = 10;
  stats.served = 6;
  stats.blocked = 1;
  EXPECT_EQ(stats.outstanding(), 3u);
}

}  // namespace
}  // namespace pushpull::metrics
