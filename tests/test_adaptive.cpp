// Tests for the re-optimizing cutoff controller of the hybrid server
// (HybridConfig::reoptimize_interval > 0): conservation, migration across
// re-partitions, cutoff tracking under drift, and superiority over a stale
// static configuration on non-stationary workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/hybrid_server.hpp"
#include "exp/scenario.hpp"
#include "resilience/invariants.hpp"
#include "workload/drifting_generator.hpp"
#include "workload/popularity_estimator.hpp"

namespace pushpull::core {
namespace {

struct DriftWorld {
  catalog::Catalog catalog;
  workload::ClientPopulation population;
  workload::Trace trace;
};

DriftWorld make_drift_world(double epoch, std::size_t shift,
                            std::size_t requests, std::uint64_t seed = 99) {
  catalog::Catalog cat(100, 1.0, catalog::LengthModel::paper_default(), 7);
  auto pop = workload::ClientPopulation::paper_default();
  workload::DriftingGenerator gen(cat, pop, 5.0, epoch, shift, seed);
  workload::Trace trace = workload::Trace::record(gen, requests);
  return DriftWorld{std::move(cat), std::move(pop), std::move(trace)};
}

HybridConfig default_adaptive() {
  HybridConfig config;
  config.cutoff = 30;
  config.alpha = 0.5;
  config.reoptimize_interval = 300.0;
  config.estimator_half_life = 400.0;
  return config;
}

TEST(AdaptiveServer, RejectsBadConfig) {
  const auto world = make_drift_world(1000.0, 10, 10);
  HybridConfig config = default_adaptive();
  config.cutoff = 1000;
  EXPECT_THROW(HybridServer(world.catalog, world.population, config),
               std::invalid_argument);
  config = default_adaptive();
  config.reoptimize_interval = -1.0;
  EXPECT_THROW(HybridServer(world.catalog, world.population, config),
               std::invalid_argument);
  config = default_adaptive();
  config.estimator_half_life = 0.0;
  EXPECT_THROW(HybridServer(world.catalog, world.population, config),
               std::invalid_argument);
}

TEST(AdaptiveServer, ZeroIntervalSelectsTheStaticController) {
  const auto world = make_drift_world(500.0, 20, 3000);
  HybridConfig config = default_adaptive();
  config.reoptimize_interval = 0.0;
  HybridServer server(world.catalog, world.population, config);
  const SimResult r = server.run(world.trace);
  EXPECT_EQ(r.reoptimizations, 0u);
  EXPECT_TRUE(r.cutoff_history.empty());
  HybridConfig plain;
  plain.cutoff = 30;
  HybridServer fixed(world.catalog, world.population, plain);
  EXPECT_DOUBLE_EQ(r.overall().wait.mean(),
                   fixed.run(world.trace).overall().wait.mean());
}

TEST(AdaptiveServer, ConservesRequests) {
  const auto world = make_drift_world(500.0, 20, 15000);
  HybridServer server(world.catalog, world.population,
                              default_adaptive());
  const SimResult r = server.run(world.trace);
  const auto overall = r.overall();
  EXPECT_EQ(overall.arrived, world.trace.size());
  EXPECT_EQ(overall.served, overall.arrived);
}

TEST(AdaptiveServer, ReoptimizesPeriodically) {
  const auto world = make_drift_world(500.0, 20, 15000);
  HybridServer server(world.catalog, world.population,
                              default_adaptive());
  const SimResult r = server.run(world.trace);
  EXPECT_GT(r.reoptimizations, 3u);
  // History: initial entry plus one per re-optimization.
  EXPECT_EQ(r.cutoff_history.size(), r.reoptimizations + 1);
  EXPECT_DOUBLE_EQ(r.cutoff_history.front().first, 0.0);
  EXPECT_EQ(r.cutoff_history.front().second, 30u);
}

TEST(AdaptiveServer, DeterministicAcrossRuns) {
  const auto world = make_drift_world(500.0, 20, 8000);
  HybridServer server(world.catalog, world.population,
                              default_adaptive());
  const SimResult a = server.run(world.trace);
  const SimResult b = server.run(world.trace);
  EXPECT_DOUBLE_EQ(a.overall().wait.mean(), b.overall().wait.mean());
  EXPECT_EQ(a.reoptimizations, b.reoptimizations);
  EXPECT_EQ(a.cutoff_history, b.cutoff_history);
}

TEST(AdaptiveServer, WorksFromPurePullStart) {
  const auto world = make_drift_world(500.0, 20, 8000);
  HybridConfig config = default_adaptive();
  config.cutoff = 0;
  HybridServer server(world.catalog, world.population, config);
  const SimResult r = server.run(world.trace);
  EXPECT_EQ(r.overall().served, world.trace.size());
}

TEST(AdaptiveServer, HandlesEmptyTrace) {
  const auto world = make_drift_world(500.0, 20, 10);
  HybridServer server(world.catalog, world.population,
                              default_adaptive());
  const SimResult r = server.run(workload::Trace{});
  EXPECT_EQ(r.overall().arrived, 0u);
}

TEST(AdaptiveServer, BeatsStaleStaticCutoffUnderDrift) {
  // Drift rotates the hot set by a third of the catalog every 400 units;
  // a static rank-prefix push set goes stale after the first epoch, while
  // the adaptive server re-learns the hot set.
  const auto world = make_drift_world(400.0, 33, 30000);

  HybridConfig adaptive = default_adaptive();
  adaptive.reoptimize_interval = 100.0;
  adaptive.estimator_half_life = 150.0;
  HybridServer dynamic(world.catalog, world.population, adaptive);
  const SimResult ra = dynamic.run(world.trace);

  HybridConfig static_config;
  static_config.cutoff = 30;
  static_config.alpha = 0.5;
  HybridServer fixed(world.catalog, world.population, static_config);
  const SimResult rs = fixed.run(world.trace);

  EXPECT_LT(ra.overall().wait.mean(), rs.overall().wait.mean());
}

TEST(AdaptiveServer, BeatsStaticCutoffUnderFlashcrowd) {
  // θ = 1.0, so the rank prefix carries real mass: when the crowd arrives
  // and the hot set jumps half the catalog, a static K = 40 keeps pushing
  // yesterday's items while the estimator re-learns the new head. At
  // 30,000 requests and the default seed the total prioritized costs are
  // 416.3 (adaptive) and 514.2 (static).
  exp::Scenario flash;
  flash.theta = 1.0;
  flash.num_requests = 30000;
  flash.preset = scenario::Preset::kFlashcrowd;
  const auto built = flash.build();

  HybridConfig static_config;
  static_config.cutoff = 40;
  static_config.alpha = 0.5;
  HybridConfig adaptive = static_config;
  adaptive.reoptimize_interval = 200.0;
  adaptive.estimator_half_life = 300.0;

  const double static_cost = exp::run_hybrid(built, static_config)
                                 .total_prioritized_cost(built.population);
  const double adaptive_cost = exp::run_hybrid(built, adaptive)
                                   .total_prioritized_cost(built.population);
  EXPECT_LT(adaptive_cost, static_cost);
}

TEST(AdaptiveServer, MatchesStationaryWorkloadReasonably) {
  // On a stationary workload the adaptive server should converge to a
  // sensible cutoff and not be dramatically worse than a tuned static one.
  exp::Scenario scenario;
  scenario.theta = 1.0;
  scenario.num_requests = 20000;
  const auto built = scenario.build();

  HybridConfig adaptive = default_adaptive();
  HybridServer dynamic(built.catalog, built.population, adaptive);
  const SimResult ra = dynamic.run(built.trace);

  HybridConfig static_config;
  static_config.cutoff = 30;
  static_config.alpha = 0.5;
  const SimResult rs = exp::run_hybrid(built, static_config);

  EXPECT_LT(ra.overall().wait.mean(), rs.overall().wait.mean() * 1.5);
  EXPECT_EQ(ra.overall().served, built.trace.size());
}

TEST(AdaptiveServer, MigratesPendingRequestsAcrossRepartitions) {
  // With aggressive re-optimization every 50 units and strong drift, items
  // cross the push/pull boundary constantly while requests are pending; all
  // requests must still be delivered exactly once.
  const auto world = make_drift_world(100.0, 50, 12000);
  HybridConfig config = default_adaptive();
  config.reoptimize_interval = 50.0;
  config.estimator_half_life = 80.0;
  HybridServer server(world.catalog, world.population, config);
  const SimResult r = server.run(world.trace);
  EXPECT_EQ(r.overall().served, world.trace.size());
  EXPECT_GT(r.reoptimizations, 10u);
}

TEST(AdaptiveServer, PremiumClassStillFavored) {
  const auto world = make_drift_world(400.0, 33, 20000);
  HybridConfig config = default_adaptive();
  config.alpha = 0.0;
  HybridServer server(world.catalog, world.population, config);
  const SimResult r = server.run(world.trace);
  EXPECT_LE(r.mean_wait(0), r.mean_wait(2) * 1.10);
}

TEST(AdaptiveServer, LadderWidensTheRankedPushSet) {
  // Under the ladder's widen-push the push set is the top K + boost of the
  // ranking the last re-optimization chose: every broadcast must be one of
  // those items. The rankings are recovered by replaying the estimator over
  // the arrivals each re-optimization had seen.
  const auto world = make_drift_world(200.0, 33, 12000);
  HybridConfig config = default_adaptive();
  config.reoptimize_interval = 100.0;
  config.estimator_half_life = 150.0;
  config.resilience.overload.enabled = true;
  config.resilience.overload.eval_interval = 2.0;
  config.resilience.overload.capacity_ref = 16;
  config.resilience.overload.cutoff_step = 10;
  struct Broadcasts final : RunListener {
    void on_transmission(bool push, double now, catalog::ItemId item,
                         std::size_t) override {
      if (push) seen.emplace_back(now, item);
    }
    std::vector<std::pair<double, catalog::ItemId>> seen;
  } broadcasts;
  HybridServer server(world.catalog, world.population, config);
  const SimResult r =
      server.run(world.trace.requests(), 0.0, &broadcasts);
  ASSERT_GE(r.max_overload_level, resilience::OverloadLevel::kWidenPush);
  ASSERT_GT(r.reoptimizations, 10u);

  // The ranking in force after each history entry; entry 0 is the
  // catalog's own order.
  std::vector<std::vector<catalog::ItemId>> rankings;
  workload::PopularityEstimator estimator(world.catalog.size(),
                                          config.estimator_half_life);
  std::size_t next = 0;
  const auto requests = world.trace.requests();
  for (const auto& [time, cutoff] : r.cutoff_history) {
    if (rankings.empty()) {
      std::vector<catalog::ItemId> identity(world.catalog.size());
      for (catalog::ItemId i = 0; i < identity.size(); ++i) identity[i] = i;
      rankings.push_back(std::move(identity));
      continue;
    }
    for (; next < requests.size() && requests[next].arrival <= time; ++next) {
      estimator.observe(requests[next].item, requests[next].arrival);
    }
    rankings.push_back(estimator.ranking());
  }

  std::size_t checked = 0;
  std::size_t entry = 0;
  std::size_t move = 0;
  bool widened = false;
  for (const auto& [start, item] : broadcasts.seen) {
    while (entry + 1 < r.cutoff_history.size() &&
           r.cutoff_history[entry + 1].first <= start) {
      ++entry;
    }
    while (move < r.overload_transitions.size() &&
           r.overload_transitions[move].time <= start) {
      widened = r.overload_transitions[move].to >=
                resilience::OverloadLevel::kWidenPush;
      ++move;
    }
    // At an instant shared with a move, the broadcast may precede it.
    const bool tied =
        r.cutoff_history[entry].first == start ||
        (move > 0 && r.overload_transitions[move - 1].time == start);
    if (tied) continue;
    const std::size_t cut =
        std::min(r.cutoff_history[entry].second +
                     (widened ? config.resilience.overload.cutoff_step : 0),
                 world.catalog.size());
    const auto& ranking = rankings[entry];
    const auto top = ranking.begin() + static_cast<std::ptrdiff_t>(cut);
    EXPECT_NE(std::find(ranking.begin(), top, item), top)
        << "item " << item << " broadcast at " << start << " outside the top "
        << cut;
    ++checked;
  }
  EXPECT_GT(checked, 100u);

  resilience::InvariantInputs in;
  in.per_class = r.per_class;
  in.max_queue_len = r.max_pull_queue_len;
  in.soft_capacity = config.resilience.overload.capacity_ref;
  in.event_order_violations = r.event_order_violations;
  in.end_time = r.end_time;
  const auto report = resilience::check_invariants(in);
  EXPECT_TRUE(report.all_pass()) << resilience::format_report(report);
}

}  // namespace
}  // namespace pushpull::core
