// Tests for the multi-seed replication runner.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "exp/replication.hpp"
#include "metrics/welford.hpp"
#include "runtime/run_reporter.hpp"

namespace pushpull::exp {
namespace {

// Bit-exact equality — the parallel engine promises the worker count is
// invisible in the numbers, so no tolerance is allowed.
void expect_identical(const metrics::Welford& a, const metrics::Welford& b,
                      const std::string& label) {
  EXPECT_EQ(a.count(), b.count()) << label;
  EXPECT_EQ(a.mean(), b.mean()) << label;
  EXPECT_EQ(a.variance(), b.variance()) << label;
  EXPECT_EQ(a.sum(), b.sum()) << label;
  EXPECT_EQ(a.min(), b.min()) << label;
  EXPECT_EQ(a.max(), b.max()) << label;
}

void expect_identical(const ReplicationSummary& a,
                      const ReplicationSummary& b) {
  EXPECT_EQ(a.replications, b.replications);
  expect_identical(a.overall_delay, b.overall_delay, "overall_delay");
  ASSERT_EQ(a.class_delay.size(), b.class_delay.size());
  for (std::size_t c = 0; c < a.class_delay.size(); ++c) {
    expect_identical(a.class_delay[c], b.class_delay[c],
                     "class_delay[" + std::to_string(c) + "]");
  }
  expect_identical(a.total_cost, b.total_cost, "total_cost");
  expect_identical(a.blocking, b.blocking, "blocking");
  expect_identical(a.pull_queue_len, b.pull_queue_len, "pull_queue_len");
}

TEST(Replication, RejectsZeroReplications) {
  Scenario scenario;
  core::HybridConfig config;
  config.cutoff = 20;
  EXPECT_THROW(replicate_hybrid(scenario, config, 0), std::invalid_argument);
}

TEST(Replication, PoolsAcrossSeeds) {
  Scenario scenario;
  scenario.num_requests = 4000;
  core::HybridConfig config;
  config.cutoff = 30;
  const ReplicationSummary summary = replicate_hybrid(scenario, config, 5);
  EXPECT_EQ(summary.replications, 5u);
  EXPECT_EQ(summary.overall_delay.count(), 5u);
  ASSERT_EQ(summary.class_delay.size(), 3u);
  EXPECT_EQ(summary.class_delay[0].count(), 5u);
  EXPECT_GT(summary.overall_delay.mean(), 0.0);
  EXPECT_GT(summary.total_cost.mean(), 0.0);
  // Different seeds produce different runs, so there is real variance.
  EXPECT_GT(summary.overall_delay.variance(), 0.0);
}

TEST(Replication, CiShrinksWithMoreReplications) {
  Scenario scenario;
  scenario.num_requests = 3000;
  core::HybridConfig config;
  config.cutoff = 30;
  const auto few = replicate_hybrid(scenario, config, 3);
  const auto many = replicate_hybrid(scenario, config, 12);
  EXPECT_GT(few.overall_delay.ci_half_width(), 0.0);
  EXPECT_GT(many.overall_delay.ci_half_width(), 0.0);
  // Quadrupling the replications should clearly tighten the interval.
  EXPECT_LT(many.overall_delay.ci_half_width(),
            few.overall_delay.ci_half_width());
}

TEST(Replication, DeterministicGivenBaseSeed) {
  Scenario scenario;
  scenario.num_requests = 3000;
  core::HybridConfig config;
  config.cutoff = 30;
  const auto a = replicate_hybrid(scenario, config, 4);
  const auto b = replicate_hybrid(scenario, config, 4);
  EXPECT_DOUBLE_EQ(a.overall_delay.mean(), b.overall_delay.mean());
  EXPECT_DOUBLE_EQ(a.total_cost.mean(), b.total_cost.mean());
}

TEST(Replication, ClassOrderingSurvivesPooling) {
  Scenario scenario;
  scenario.num_requests = 8000;
  core::HybridConfig config;
  config.cutoff = 15;
  config.alpha = 0.0;
  const auto summary = replicate_hybrid(scenario, config, 5);
  EXPECT_LE(summary.class_delay[0].mean(),
            summary.class_delay[2].mean() * 1.05);
}

TEST(Replication, BlockingMetricTracked) {
  Scenario scenario;
  scenario.num_requests = 5000;
  core::HybridConfig config;
  config.cutoff = 10;
  config.total_bandwidth = 1.0;
  config.mean_bandwidth_demand = 1.5;
  const auto summary = replicate_hybrid(scenario, config, 3);
  EXPECT_GT(summary.blocking.mean(), 0.0);
  EXPECT_LE(summary.blocking.max(), 1.0);
}

TEST(Replication, ParallelIsBitIdenticalToSerial) {
  struct Input {
    std::size_t requests;
    std::size_t reps;
    std::size_t jobs;
  };
  // 8 replications of 2,000 requests on 8 workers, and 20 of 8,000 on 4,
  // both at K = 30, α = 0.5.
  for (const Input& input : {Input{2000, 8, 8}, Input{8000, 20, 4}}) {
    SCOPED_TRACE(std::to_string(input.reps) + " x " +
                 std::to_string(input.requests) + " requests");
    Scenario scenario;
    scenario.num_requests = input.requests;
    core::HybridConfig config;
    config.cutoff = 30;

    scenario.jobs = 1;
    const auto serial = replicate_hybrid(scenario, config, input.reps);

    scenario.jobs = input.jobs;
    const auto parallel = replicate_hybrid(scenario, config, input.reps);

    expect_identical(serial, parallel);
  }
}

TEST(Replication, AutoJobsMatchesSerialToo) {
  Scenario scenario;
  scenario.num_requests = 1500;
  scenario.jobs = 0;  // hardware concurrency via the Scenario knob
  core::HybridConfig config;
  config.cutoff = 20;
  const auto auto_jobs = replicate_hybrid(scenario, config, 6);

  scenario.jobs = 1;
  const auto serial = replicate_hybrid(scenario, config, 6);
  expect_identical(serial, auto_jobs);
}

TEST(Replication, ClassDelaySizedFromBuiltPopulation) {
  // The summary's per-class pools must track the *built* population, not
  // blindly trust the scenario's declared class count (the two are
  // validated against each other inside each replication).
  Scenario scenario;
  scenario.num_classes = 5;
  scenario.num_requests = 2000;
  core::HybridConfig config;
  config.cutoff = 25;
  const auto summary = replicate_hybrid(scenario, config, 3);
  ASSERT_EQ(summary.class_delay.size(), 5u);
  for (const auto& w : summary.class_delay) {
    EXPECT_EQ(w.count(), 3u);
  }
}

TEST(Replication, ParallelRunEmitsProgressJsonl) {
  Scenario scenario;
  scenario.num_requests = 1000;
  scenario.jobs = 4;
  core::HybridConfig config;
  config.cutoff = 30;

  std::ostringstream sink;
  runtime::RunReporter reporter(sink);
  ReplicateOptions options;
  options.reporter = &reporter;
  (void)replicate_hybrid(scenario, config, 4, options);

  std::istringstream lines(sink.str());
  std::size_t jobs = 0;
  bool saw_start = false;
  bool saw_end = false;
  for (std::string line; std::getline(lines, line);) {
    if (line.find(R"("event":"run_start")") != std::string::npos) {
      saw_start = true;
      // The worker count comes from Scenario::jobs.
      EXPECT_NE(line.find(R"("workers":4})"), std::string::npos) << line;
    } else if (line.find(R"("event":"run_end")") != std::string::npos) {
      saw_end = true;
    } else if (line.find(R"("event":"job")") != std::string::npos) {
      ++jobs;
    }
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_end);
  EXPECT_EQ(jobs, 4u);
}

}  // namespace
}  // namespace pushpull::exp
