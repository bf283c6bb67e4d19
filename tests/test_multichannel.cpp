// Tests for the hybrid server's dedicated channel layout
// (HybridConfig::pull_channels > 0): conservation, concurrency across pull
// channels, capacity scaling and the alternation-penalty comparison against
// the shared single-channel layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/hybrid_server.hpp"
#include "exp/scenario.hpp"
#include "resilience/invariants.hpp"
#include "storm_audit.hpp"

namespace pushpull::core {
namespace {

exp::Scenario small_scenario(std::size_t requests = 15000) {
  exp::Scenario s;
  s.num_items = 50;
  s.num_requests = requests;
  return s;
}

HybridConfig dedicated(std::size_t cutoff, std::size_t channels) {
  HybridConfig config;
  config.cutoff = cutoff;
  config.pull_channels = channels;
  return config;
}

TEST(MultiChannel, RejectsBadConfig) {
  const auto built = small_scenario(10).build();
  HybridConfig config = dedicated(1000, 1);
  EXPECT_THROW(HybridServer(built.catalog, built.population, config),
               std::invalid_argument);
}

TEST(MultiChannel, ZeroPullChannelsSelectsTheSharedLayout) {
  const auto built = small_scenario(3000).build();
  HybridServer server(built.catalog, built.population, dedicated(10, 0));
  const SimResult r = server.run(built.trace);
  EXPECT_EQ(r.channel_utilization.size(), 1u);
  HybridConfig plain;
  plain.cutoff = 10;
  EXPECT_DOUBLE_EQ(r.overall().wait.mean(),
                   exp::run_hybrid(built, plain).overall().wait.mean());
}

TEST(MultiChannel, ConservesRequests) {
  const auto built = small_scenario().build();
  HybridServer server(built.catalog, built.population, dedicated(20, 2));
  const SimResult r = server.run(built.trace);
  const auto overall = r.overall();
  EXPECT_EQ(overall.arrived, built.trace.size());
  EXPECT_EQ(overall.served, overall.arrived);
}

TEST(MultiChannel, EmptyTraceAndPureModes) {
  const auto built = small_scenario(5000).build();
  for (std::size_t cutoff : {std::size_t{0}, built.catalog.size()}) {
    HybridServer server(built.catalog, built.population,
                        dedicated(cutoff, 2));
    const SimResult r = server.run(built.trace);
    EXPECT_EQ(r.overall().served, built.trace.size()) << "cutoff=" << cutoff;
  }
  HybridServer server(built.catalog, built.population, dedicated(10, 1));
  const SimResult r = server.run(workload::Trace{});
  EXPECT_EQ(r.overall().arrived, 0u);
}

TEST(MultiChannel, MoreChannelsNeverSlower) {
  const auto built = small_scenario(25000).build();
  double prev = 1e300;
  for (std::size_t channels : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    HybridServer server(built.catalog, built.population,
                        dedicated(10, channels));
    const SimResult r = server.run(built.trace);
    const double delay = r.overall().wait.mean();
    EXPECT_LT(delay, prev * 1.02) << channels << " channels";
    prev = delay;
  }
}

TEST(MultiChannel, BeatsAlternatingSingleChannelServer) {
  // Even with ONE pull channel, the multi-channel layout has strictly more
  // capacity than the paper's shared channel (push no longer steals pull
  // airtime), so delays must be lower at the same cutoff.
  const auto built = small_scenario(25000).build();
  HybridServer layered(built.catalog, built.population, dedicated(15, 1));
  const SimResult rm = layered.run(built.trace);

  HybridConfig shared;
  shared.cutoff = 15;
  HybridServer single(built.catalog, built.population, shared);
  const SimResult rs = single.run(built.trace);

  EXPECT_LT(rm.overall().wait.mean(), rs.overall().wait.mean());
}

TEST(MultiChannel, UtilizationAccounting) {
  const auto built = small_scenario(20000).build();
  HybridServer server(built.catalog, built.population, dedicated(20, 3));
  const SimResult r = server.run(built.trace);

  // The broadcast channel runs back-to-back: utilization ≈ 1.
  ASSERT_EQ(r.channel_utilization.size(), 1u + 3u);
  EXPECT_GT(r.channel_utilization[0], 0.95);
  EXPECT_LT(r.channel_utilization[0], 1.05);
  for (std::size_t c = 1; c <= 3; ++c) {
    EXPECT_GE(r.channel_utilization[c], 0.0);
    EXPECT_LE(r.channel_utilization[c], 1.05);
  }
  // Pull channel 1 is always tried first, so utilization is non-increasing.
  EXPECT_GE(r.channel_utilization[1] + 1e-9, r.channel_utilization[3]);
}

TEST(MultiChannel, DeterministicAcrossRuns) {
  const auto built = small_scenario(8000).build();
  HybridServer server(built.catalog, built.population, dedicated(15, 2));
  const SimResult a = server.run(built.trace);
  const SimResult b = server.run(built.trace);
  EXPECT_DOUBLE_EQ(a.overall().wait.mean(), b.overall().wait.mean());
  EXPECT_EQ(a.pull_transmissions, b.pull_transmissions);
}

TEST(MultiChannel, PremiumClassOrderingHolds) {
  const auto built = small_scenario(25000).build();
  HybridConfig config = dedicated(10, 1);
  config.alpha = 0.0;
  HybridServer server(built.catalog, built.population, config);
  const SimResult r = server.run(built.trace);
  EXPECT_LE(r.mean_wait(0), r.mean_wait(2) * 1.10);
}

TEST(MultiChannel, TailQuantilesPopulated) {
  const auto built = small_scenario(20000).build();
  HybridServer server(built.catalog, built.population, dedicated(20, 2));
  const SimResult r = server.run(built.trace);
  for (const auto& cls : r.per_class) {
    if (cls.served == 0) continue;
    EXPECT_GT(cls.wait_p50.value(), 0.0);
    EXPECT_LE(cls.wait_p50.value(), cls.wait_p95.value());
    EXPECT_LE(cls.wait_p95.value(), cls.wait_p99.value());
    EXPECT_LE(cls.wait_p99.value(), cls.wait.max() * 1.001);
  }
}

// --- the engine's other layers on the dedicated layout -------------------

std::uint64_t settled(const SimResult& r) {
  std::uint64_t n = 0;
  for (const auto& s : r.per_class) {
    n += s.served + s.blocked + s.abandoned + s.shed + s.lost + s.rejected;
  }
  return n;
}

void expect_invariants(const SimResult& r) {
  resilience::InvariantInputs in;
  in.per_class = r.per_class;
  in.max_queue_len = r.max_pull_queue_len;
  in.event_order_violations = r.event_order_violations;
  in.end_time = r.end_time;
  const auto report = resilience::check_invariants(in);
  EXPECT_TRUE(report.all_pass()) << resilience::format_report(report);
}

TEST(MultiChannel, CrashVoidsEveryChannelAndStormsItsPulls) {
  const auto built = small_scenario(8000).build();
  HybridConfig config = dedicated(10, 3);
  config.resilience.crash.enabled = true;
  config.resilience.crash.rate = 0.01;
  config.resilience.crash.downtime = 5.0;
  test::StormAudit audit;
  HybridServer server(built.catalog, built.population, config);
  server.set_tracer(audit.tracer());
  const SimResult r = server.run(built.trace.requests(), 0.0, &audit);

  const auto verdict = audit.check(config.cutoff);
  EXPECT_TRUE(verdict.failures.empty()) << verdict.failures;
  EXPECT_EQ(verdict.crashes, r.crashes);
  EXPECT_GT(verdict.pulls_stormed, 0u);
  EXPECT_EQ(r.unsettled, 0u);
  expect_invariants(r);
}

TEST(MultiChannel, DrainEndsOnlyWhenEveryChannelIsIdle) {
  struct Watcher final : RunListener {
    explicit Watcher(const catalog::Catalog& c) : cat(&c) {}
    void on_transmission(bool push, double now, catalog::ItemId item,
                         std::size_t audience) override {
      if (push && drained) push_after_drain = true;
      if (audience > 0) last_end = std::max(last_end, now + cat->length(item));
    }
    void on_drain(double, std::uint64_t) override { drained = true; }
    const catalog::Catalog* cat;
    double last_end = 0.0;
    bool drained = false;
    bool push_after_drain = false;
  };
  const auto built = small_scenario(8000).build();
  Watcher watcher(built.catalog);
  HybridServer server(built.catalog, built.population, dedicated(10, 3));
  const SimResult r = server.run(built.trace.requests(),
                                 built.trace.span() * 0.5, &watcher);
  ASSERT_TRUE(watcher.drained);
  EXPECT_FALSE(watcher.push_after_drain);
  // Every transmission that carried anyone delivered before the run ended.
  EXPECT_LE(watcher.last_end, r.end_time);
  EXPECT_GT(r.unsettled, 0u) << "parked push waiters stay unsettled";
  EXPECT_EQ(settled(r) + r.unsettled, r.overall().arrived);
}

TEST(MultiChannel, PullChannelsHoldBandwidthGrantsConcurrently) {
  // Each class pool fits one unit-demand grant at a time: one pull channel
  // blocks only demands of 2 and up, three channels also block each
  // other's overlapping grants.
  const auto built = small_scenario(8000).build();
  std::vector<std::uint64_t> blocked;
  for (const std::size_t channels : {std::size_t{1}, std::size_t{3}}) {
    HybridConfig config = dedicated(10, channels);
    config.total_bandwidth = 4.5;
    config.mean_bandwidth_demand = 1.0;
    HybridServer server(built.catalog, built.population, config);
    const SimResult r = server.run(built.trace);
    EXPECT_EQ(r.unsettled, 0u);
    expect_invariants(r);
    blocked.push_back(r.blocked_transmissions);
  }
  EXPECT_GT(blocked[0], 0u);
  EXPECT_GT(blocked[1], blocked[0]);
}

}  // namespace
}  // namespace pushpull::core
