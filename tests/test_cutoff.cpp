// Unit tests for the cutoff-point scan/optimizer.
#include <gtest/gtest.h>

#include <cmath>

#include "core/cutoff_optimizer.hpp"
#include "obs/category.hpp"
#include "obs/trace.hpp"

namespace pushpull::core {
namespace {

TEST(CutoffScan, FindsParabolaMinimum) {
  const auto cost = [](std::size_t k) {
    const double x = static_cast<double>(k);
    return (x - 37.0) * (x - 37.0);
  };
  const CutoffScan scan = scan_cutoffs(0, 100, 1, cost);
  EXPECT_EQ(scan.best_cutoff, 37u);
  EXPECT_DOUBLE_EQ(scan.best_cost, 0.0);
  EXPECT_EQ(scan.curve.size(), 101u);
}

TEST(CutoffScan, StepSamplingStillCoversEndpoints) {
  const auto cost = [](std::size_t k) { return static_cast<double>(k); };
  const CutoffScan scan = scan_cutoffs(0, 100, 7, cost);
  EXPECT_EQ(scan.curve.front().cutoff, 0u);
  EXPECT_EQ(scan.curve.back().cutoff, 100u);
  EXPECT_EQ(scan.best_cutoff, 0u);
}

TEST(CutoffScan, StepLargerThanRange) {
  const auto cost = [](std::size_t k) { return static_cast<double>(k); };
  const CutoffScan scan = scan_cutoffs(3, 5, 10, cost);
  ASSERT_EQ(scan.curve.size(), 2u);
  EXPECT_EQ(scan.curve[0].cutoff, 3u);
  EXPECT_EQ(scan.curve[1].cutoff, 5u);
}

TEST(CutoffScan, SinglePoint) {
  const auto cost = [](std::size_t) { return 4.0; };
  const CutoffScan scan = scan_cutoffs(8, 8, 1, cost);
  ASSERT_EQ(scan.curve.size(), 1u);
  EXPECT_EQ(scan.best_cutoff, 8u);
  EXPECT_DOUBLE_EQ(scan.best_cost, 4.0);
}

TEST(CutoffScan, FirstMinimumWinsOnTies) {
  const auto cost = [](std::size_t k) {
    return (k == 10 || k == 20) ? 1.0 : 2.0;
  };
  const CutoffScan scan = scan_cutoffs(0, 30, 1, cost);
  EXPECT_EQ(scan.best_cutoff, 10u);
}

TEST(CutoffScan, MinimumAtRightEndpoint) {
  const auto cost = [](std::size_t k) { return 100.0 - static_cast<double>(k); };
  const CutoffScan scan = scan_cutoffs(0, 55, 10, cost);
  EXPECT_EQ(scan.best_cutoff, 55u);
}

TEST(CutoffScan, RejectsBadArguments) {
  const auto cost = [](std::size_t) { return 0.0; };
  EXPECT_THROW(scan_cutoffs(5, 4, 1, cost), std::invalid_argument);
  EXPECT_THROW(scan_cutoffs(0, 10, 0, cost), std::invalid_argument);
}

TEST(CutoffScan, CurveIsStrictlyIncreasingInCutoff) {
  const auto cost = [](std::size_t k) { return std::sin(static_cast<double>(k)); };
  const CutoffScan scan = scan_cutoffs(0, 50, 3, cost);
  for (std::size_t i = 1; i < scan.curve.size(); ++i) {
    EXPECT_LT(scan.curve[i - 1].cutoff, scan.curve[i].cutoff);
  }
}

TEST(CutoffScan, TracedScanEmitsEverySampleThenTheBest) {
  const auto cost = [](std::size_t k) {
    const double x = static_cast<double>(k);
    return (x - 12.0) * (x - 12.0);
  };
  obs::TraceSink sink(64, obs::kAllCategories);
  const CutoffScan traced =
      scan_cutoffs(0, 30, 4, cost, obs::Tracer(&sink));
  const CutoffScan plain = scan_cutoffs(0, 30, 4, cost);
  EXPECT_EQ(traced.best_cutoff, plain.best_cutoff);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), plain.curve.size() + 1);
  for (std::size_t i = 0; i < plain.curve.size(); ++i) {
    EXPECT_STREQ(events[i].name, "sample");
    EXPECT_EQ(events[i].a, plain.curve[i].cutoff);
    EXPECT_EQ(events[i].v, plain.curve[i].cost);
  }
  EXPECT_STREQ(events.back().name, "best");
  EXPECT_EQ(events.back().a, plain.best_cutoff);
}

}  // namespace
}  // namespace pushpull::core
