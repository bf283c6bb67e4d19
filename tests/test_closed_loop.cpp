// Tests for the closed-loop (finite client population) arrival source of
// the hybrid server.
#include <gtest/gtest.h>

#include "catalog/catalog.hpp"
#include "catalog/length_model.hpp"
#include "core/hybrid_server.hpp"

namespace pushpull::core {
namespace {

catalog::Catalog test_catalog() {
  return catalog::Catalog(50, 0.6, catalog::LengthModel::paper_default(), 7);
}

HybridConfig base_config() {
  HybridConfig config;
  config.cutoff = 15;
  config.alpha = 0.25;
  config.warmup_fraction = 0.1;
  return config;
}

ClosedLoop base_loop(std::size_t clients = 40) {
  ClosedLoop loop;
  loop.clients = clients;
  loop.think_rate = 0.05;
  loop.horizon = 8000.0;
  return loop;
}

TEST(ClosedLoop, RejectsBadConfig) {
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  HybridServer server(cat, pop, base_config());
  ClosedLoop loop = base_loop();
  loop.clients = 0;
  EXPECT_THROW((void)server.run(loop), std::invalid_argument);
  loop = base_loop();
  loop.think_rate = 0.0;
  EXPECT_THROW((void)server.run(loop), std::invalid_argument);
  HybridConfig config = base_config();
  config.cutoff = 1000;
  EXPECT_THROW(HybridServer(cat, pop, config), std::invalid_argument);
  loop = base_loop();
  loop.horizon = 0.0;
  EXPECT_THROW((void)server.run(loop), std::invalid_argument);
  config = base_config();
  config.warmup_fraction = 1.0;
  EXPECT_THROW(HybridServer(cat, pop, config), std::invalid_argument);
}

TEST(ClosedLoop, RunsAndServes) {
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  HybridServer server(cat, pop, base_config());
  const SimResult r = server.run(base_loop());
  EXPECT_GT(r.overall().served, 0u);
  EXPECT_GT(r.throughput, 0.0);
  EXPECT_GT(r.push_transmissions, 0u);
}

TEST(ClosedLoop, OutstandingBoundedByPopulation) {
  // A closed loop can never have more outstanding requests than clients.
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  HybridServer server(cat, pop, base_config());
  const SimResult r = server.run(base_loop());
  const auto overall = r.overall();
  EXPECT_LE(overall.arrived - overall.served, 40u);
}

TEST(ClosedLoop, ThroughputSaturatesWithPopulation) {
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  double prev_throughput = 0.0;
  double saturated = 0.0;
  for (std::size_t clients : {std::size_t{5}, std::size_t{40},
                              std::size_t{200}}) {
    HybridServer server(cat, pop, base_config());
    const SimResult r = server.run(base_loop(clients));
    EXPECT_GE(r.throughput, prev_throughput * 0.9)
        << clients << " clients";  // throughput never collapses
    prev_throughput = r.throughput;
    saturated = r.throughput;
  }
  // 200 clients cannot push more deliveries than the channel can carry:
  // at mean item length 2, even perfect batching bounds deliveries well
  // below clients × think rate (= 10 per unit).
  EXPECT_LT(saturated, 10.0);
  EXPECT_GT(saturated, 0.2);
}

TEST(ClosedLoop, DelayGrowsWithPopulation) {
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  HybridServer a(cat, pop, base_config());
  HybridServer b(cat, pop, base_config());
  EXPECT_LT(a.run(base_loop(5)).overall().wait.mean(),
            b.run(base_loop(300)).overall().wait.mean());
}

TEST(ClosedLoop, DeterministicForSeed) {
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  HybridServer server(cat, pop, base_config());
  const SimResult a = server.run(base_loop());
  const SimResult b = server.run(base_loop());
  EXPECT_DOUBLE_EQ(a.overall().wait.mean(), b.overall().wait.mean());
  EXPECT_EQ(a.pull_transmissions, b.pull_transmissions);
}

TEST(ClosedLoop, ClassAssignmentFollowsShares) {
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  HybridConfig config = base_config();
  config.alpha = 0.0;
  HybridServer server(cat, pop, config);
  const SimResult r = server.run(base_loop(300));
  // Lowest class has the largest population share, hence the most arrivals.
  EXPECT_GT(r.per_class[2].arrived, r.per_class[0].arrived);
  // And the premium class keeps its delay edge.
  EXPECT_LE(r.mean_wait(0), r.mean_wait(2) * 1.10);
}

TEST(ClosedLoop, PurePullIdlesGracefully) {
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  HybridConfig config = base_config();
  config.cutoff = 0;
  HybridServer server(cat, pop, config);
  const SimResult r = server.run(base_loop(10));
  EXPECT_GT(r.overall().served, 0u);
  EXPECT_EQ(r.push_transmissions, 0u);
}

TEST(ClosedLoop, AbandonedClientsThinkAgain) {
  // Patience far below the broadcast cycle: most requests are abandoned.
  // Each abandonment settles the request, so its client thinks and asks
  // again; were it left waiting, arrivals would stop after one abandonment
  // per client.
  const auto cat = test_catalog();
  const auto pop = workload::ClientPopulation::paper_default();
  HybridConfig config = base_config();
  config.warmup_fraction = 0.0;
  config.mean_patience = 2.0;
  HybridServer server(cat, pop, config);
  const ClosedLoop loop = base_loop(10);
  const SimResult r = server.run(loop);
  const auto all = r.overall();
  EXPECT_GT(all.abandoned, 20 * loop.clients);
  EXPECT_GT(all.served, 0u);
  // The ledger: every issued request settled or is still outstanding, and
  // at most one per client is.
  const std::uint64_t settled = all.served + all.blocked + all.abandoned +
                                all.shed + all.lost + all.rejected;
  EXPECT_EQ(all.arrived, settled + r.unsettled);
  EXPECT_LE(r.unsettled, loop.clients);
}

}  // namespace
}  // namespace pushpull::core
