// Allocation tests for the engine's steady-state loop, in their own binary
// because they replace the global operator new and operator delete with
// counting versions (counting_new.hpp):
//
// - a warm des::Simulator schedules, cancels and dispatches without
//   allocating;
// - a warm HybridServer's run() makes the same small number of allocations
//   whatever the number of requests: the per-run set-up (the metrics
//   collector, the arrival stream's closure, the result), and nothing per
//   request.
//
// Pull entries still allocate their request buffer: each item that enters
// the pull queue creates an entry whose pending vector is allocated on the
// first request and freed after the entry's transmission. The server case
// therefore runs at cutoff K = D, where every item is pushed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/hybrid_server.hpp"
#include "counting_new.hpp"
#include "des/simulator.hpp"
#include "exp/scenario.hpp"
#include "rng/uniform.hpp"
#include "rng/xoshiro256ss.hpp"

namespace pushpull {
namespace {

using alloc_count::AllocationCount;

/// `ops` seeded operations around ~1,000 pending events: below that level
/// it schedules; at or above it, a third of the operations schedule, a
/// third cancel one of the ~1,000 most recently scheduled ids (mostly
/// pending, some already fired) and a third dispatch the next event.
void churn(des::Simulator& sim, std::vector<des::EventId>& ids,
           std::uint64_t& fired, std::size_t ops) {
  constexpr std::size_t kLevel = 1000;
  rng::Xoshiro256ss eng(0xA110C);
  for (std::size_t i = 0; i < ops; ++i) {
    const double dice = rng::uniform01(eng);
    if (sim.pending_events() < kLevel || dice < 1.0 / 3.0) {
      ids.push_back(sim.schedule_in(rng::uniform01(eng) * 10.0,
                                    [&fired] { ++fired; }));
    } else if (dice < 2.0 / 3.0) {
      const std::size_t window = std::min(ids.size(), kLevel);
      const std::size_t pick =
          ids.size() - 1 -
          static_cast<std::size_t>(rng::uniform_below(eng, window));
      (void)sim.cancel(ids[pick]);
      ids[pick] = ids.back();
      ids.pop_back();
    } else {
      ASSERT_TRUE(sim.step());
    }
  }
}

TEST(EngineAlloc, WarmSimulatorChurnAllocatesNothing) {
  constexpr std::size_t kOps = 100000;
  des::Simulator sim;
  std::vector<des::EventId> ids;
  ids.reserve(kOps);
  std::uint64_t fired = 0;
  // Warm-up: the identical churn grows every array to its peak; reset()
  // keeps the capacity.
  churn(sim, ids, fired, kOps);
  sim.reset();
  ids.clear();
  const std::uint64_t cancelled_before = sim.cancelled_events();
  const std::uint64_t fired_before = fired;
  std::size_t news = 0;
  std::size_t deletes = 0;
  {
    const AllocationCount count;
    churn(sim, ids, fired, kOps);
    news = count.news();
    deletes = count.deletes();
  }
  EXPECT_EQ(news, 0u);
  EXPECT_EQ(deletes, 0u);
  // The churn did what it says: ~1,000 pending, cancels and dispatches.
  EXPECT_GE(sim.pending_events(), 900u);
  EXPECT_LE(sim.pending_events(), 1100u);
  EXPECT_GT(sim.cancelled_events() - cancelled_before, kOps / 8);
  EXPECT_GT(fired - fired_before, kOps / 8);
}

/// Allocations made by the second run() of a warm server over the §5.1
/// scenario with `requests` requests, at cutoff K = D = 100 (the paper
/// grid's pure-push point) and mean patience 100.
std::size_t warm_run_allocations(std::size_t requests) {
  exp::Scenario scenario;
  scenario.num_requests = requests;
  const exp::Scenario::Built built = scenario.build();
  core::HybridConfig config;
  config.cutoff = scenario.num_items;
  config.mean_patience = 100.0;
  core::HybridServer server(built.catalog, built.population, config);
  const core::SimResult first = server.run(built.trace);
  std::size_t news = 0;
  core::SimResult second;
  {
    const AllocationCount count;
    second = server.run(built.trace);
    news = count.news();
  }
  // The run served and abandoned requests, and repeated the first exactly.
  std::uint64_t served = 0;
  std::uint64_t abandoned = 0;
  for (std::size_t c = 0; c < second.per_class.size(); ++c) {
    EXPECT_EQ(second.per_class[c].served, first.per_class[c].served);
    EXPECT_EQ(second.per_class[c].abandoned, first.per_class[c].abandoned);
    served += second.per_class[c].served;
    abandoned += second.per_class[c].abandoned;
  }
  EXPECT_GT(served, requests / 10);
  EXPECT_GT(abandoned, requests / 10);
  EXPECT_EQ(second.end_time, first.end_time);
  EXPECT_EQ(second.unsettled, 0u);
  return news;
}

TEST(EngineAlloc, WarmServerRunAllocatesTheSameAtAnyLength) {
  const std::size_t small = warm_run_allocations(50000);
  const std::size_t large = warm_run_allocations(200000);
  EXPECT_EQ(small, large);
  EXPECT_LE(small, 16u);
}

}  // namespace
}  // namespace pushpull
