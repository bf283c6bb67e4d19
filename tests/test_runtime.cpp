// Tests for the deterministic parallel execution engine: thread-pool
// lifecycle, ordered collection, exception propagation and the JSONL
// progress reporter.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"

namespace pushpull::runtime {
namespace {

TEST(ThreadPool, StartsRequestedWorkersAndStops) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  // Destructor joins — the test passing at all is the stop/join check.
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::default_concurrency());
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);
}

TEST(ThreadPool, RunsSubmittedJobs) {
  std::atomic<int> hits{0};
  {
    ThreadPool pool(4);
    (void)parallel_map(pool, 100, [&](std::size_t) { return ++hits; });
  }
  EXPECT_EQ(hits.load(), 100);
}

TEST(ParallelMap, EachIndexRunsExactlyOnce) {
  std::vector<int> counts(500, 0);
  ThreadPool pool(8);
  // Per-slot writes only — no shared mutation.
  (void)parallel_map(pool, counts.size(),
                     [&](std::size_t i) { return counts[i] += 1; });
  for (const int c : counts) EXPECT_EQ(c, 1);
}

TEST(ParallelMap, CollectsInIndexOrderRegardlessOfCompletion) {
  ThreadPool pool(8);
  // Early indices sleep longest, so completion order is roughly reversed —
  // collection order must still be 0, 1, 2, ...
  const auto squares = parallel_map(pool, 16, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds((16 - i) * 200));
    return i * i;
  });
  ASSERT_EQ(squares.size(), 16u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ParallelMap, PropagatesJobException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      (void)parallel_map(pool, 8,
                         [](std::size_t i) {
                           if (i == 5) throw std::runtime_error("job 5 died");
                           return i;
                         }),
      std::runtime_error);
}

TEST(ParallelMap, LowestIndexedFailureWins) {
  ThreadPool pool(4);
  try {
    (void)parallel_map(pool, 8, [](std::size_t i) {
      if (i == 3) throw std::runtime_error("failure 3");
      if (i == 6) throw std::runtime_error("failure 6");
      return i;
    });
    FAIL() << "expected a runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "failure 3");
  }
}

TEST(SerialMap, MatchesParallelMapSemantics) {
  const auto serial = serial_map(10, [](std::size_t i) { return i + 1; });
  ThreadPool pool(4);
  const auto parallel = parallel_map(pool, 10,
                                     [](std::size_t i) { return i + 1; });
  EXPECT_EQ(serial, parallel);
}

TEST(JobResult, OrderedCollectionFromOutOfOrderFulfillment) {
  JobResult<int> result(4);
  result.fulfill(2, 20);
  result.fulfill(0, 0);
  EXPECT_FALSE(result.done());
  result.fulfill(3, 30);
  result.fulfill(1, 10);
  EXPECT_TRUE(result.done());
  EXPECT_EQ(result.collect(), (std::vector<int>{0, 10, 20, 30}));
}

TEST(JobResult, RejectsDoubleSettlement) {
  JobResult<int> result(2);
  result.fulfill(0, 1);
  EXPECT_THROW(result.fulfill(0, 2), std::logic_error);
  EXPECT_THROW(result.fulfill(9, 0), std::out_of_range);
}

TEST(RunReporter, EmitsOneJsonLinePerEvent) {
  std::ostringstream sink;
  RunReporter reporter(sink);
  reporter.run_started("unit", 2, 4);
  reporter.job_finished(0, 1.5, true);
  reporter.job_finished(1, 0.25, false, "boom");
  reporter.run_finished("unit", 2, 2.0);

  std::istringstream lines(sink.str());
  std::vector<std::string> parsed;
  for (std::string line; std::getline(lines, line);) parsed.push_back(line);
  ASSERT_EQ(parsed.size(), 4u);
  EXPECT_EQ(parsed[0],
            R"({"event":"run_start","label":"unit","jobs":2,"workers":4})");
  EXPECT_EQ(parsed[1],
            R"({"event":"job","id":0,"wall_ms":1.500,"outcome":"ok"})");
  EXPECT_EQ(
      parsed[2],
      R"({"event":"job","id":1,"wall_ms":0.250,"outcome":"error","detail":"boom"})");
  EXPECT_EQ(parsed[3],
            R"({"event":"run_end","label":"unit","jobs":2,"wall_ms":2.000})");
}

TEST(RunReporter, EscapesDetailText) {
  std::ostringstream sink;
  RunReporter reporter(sink);
  reporter.job_finished(0, 1.0, false, "say \"hi\"\nback\\slash");
  EXPECT_NE(sink.str().find(R"(say \"hi\"\nback\\slash)"), std::string::npos);
}

TEST(RunReporter, ReportsFromParallelWorkersWithoutTearing) {
  std::ostringstream sink;
  RunReporter reporter(sink);
  ThreadPool pool(8);
  (void)parallel_map(
      pool, 64, [](std::size_t i) { return i; }, &reporter);
  std::istringstream lines(sink.str());
  std::size_t count = 0;
  for (std::string line; std::getline(lines, line);) {
    EXPECT_EQ(line.find(R"({"event":"job","id":)"), 0u);
    EXPECT_NE(line.find(R"("outcome":"ok"})"), std::string::npos);
    ++count;
  }
  EXPECT_EQ(count, 64u);
}

}  // namespace
}  // namespace pushpull::runtime
