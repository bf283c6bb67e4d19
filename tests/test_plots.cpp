// Tests for the gnuplot emitter.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/plots.hpp"

namespace pushpull::exp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Each case writes its own files under the test temp directory, named
/// after the running test, so cases run in parallel (ctest -j) never read
/// or delete each other's output.
class PlotsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove((prefix_ + ".dat").c_str());
    std::remove((prefix_ + ".gp").c_str());
  }
  std::string prefix_ =
      ::testing::TempDir() + "test_plot_output_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
};

TEST_F(PlotsTest, RejectsEmptySpec) {
  EXPECT_THROW(write_gnuplot(prefix_, PlotSpec{}), std::invalid_argument);
}

TEST_F(PlotsTest, WritesDataAndScript) {
  PlotSpec spec{std::string("Delay vs cutoff"), std::string("K"),
                std::string("delay"), {}};
  spec.series.push_back(PlotSeries{"class A", {{10, 5.0}, {20, 3.0}}});
  spec.series.push_back(PlotSeries{"class C", {{10, 9.0}, {20, 7.0}}});
  write_gnuplot(prefix_, spec);

  const std::string dat = slurp(prefix_ + ".dat");
  EXPECT_NE(dat.find("class A"), std::string::npos);
  EXPECT_NE(dat.find("10\t5\t9"), std::string::npos);
  EXPECT_NE(dat.find("20\t3\t7"), std::string::npos);

  const std::string gp = slurp(prefix_ + ".gp");
  EXPECT_NE(gp.find("set title 'Delay vs cutoff'"), std::string::npos);
  EXPECT_NE(gp.find("using 1:2"), std::string::npos);
  EXPECT_NE(gp.find("using 1:3"), std::string::npos);
  EXPECT_NE(gp.find(prefix_ + ".png"), std::string::npos);
}

TEST_F(PlotsTest, MisalignedSeriesUseMissingMarker) {
  PlotSpec spec;
  spec.series.push_back(PlotSeries{"a", {{1, 1.0}, {2, 2.0}}});
  spec.series.push_back(PlotSeries{"b", {{2, 5.0}, {3, 6.0}}});
  write_gnuplot(prefix_, spec);
  const std::string dat = slurp(prefix_ + ".dat");
  // x=1 has no 'b' value; x=3 has no 'a' value.
  EXPECT_NE(dat.find("1\t1\t?"), std::string::npos);
  EXPECT_NE(dat.find("3\t?\t6"), std::string::npos);
  const std::string gp = slurp(prefix_ + ".gp");
  EXPECT_NE(gp.find("datafile missing"), std::string::npos);
}

TEST_F(PlotsTest, XValuesSorted) {
  PlotSpec spec;
  spec.series.push_back(PlotSeries{"a", {{30, 1.0}, {10, 2.0}, {20, 3.0}}});
  write_gnuplot(prefix_, spec);
  const std::string dat = slurp(prefix_ + ".dat");
  const auto p10 = dat.find("\n10\t");
  const auto p20 = dat.find("\n20\t");
  const auto p30 = dat.find("\n30\t");
  ASSERT_NE(p10, std::string::npos);
  ASSERT_NE(p20, std::string::npos);
  ASSERT_NE(p30, std::string::npos);
  EXPECT_LT(p10, p20);
  EXPECT_LT(p20, p30);
}

}  // namespace
}  // namespace pushpull::exp
