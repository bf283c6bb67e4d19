// Fault-injection layer: Gilbert–Elliott channel statistics, bit-invisible
// defaults, bounded-retry recovery, overload shedding and the conservation
// law arrived = served + blocked + abandoned + shed + lost.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/hybrid_server.hpp"
#include "exp/scenario.hpp"
#include "fault/channel.hpp"
#include "fault/fault_config.hpp"
#include "fault/retry.hpp"
#include "fault/shedding.hpp"
#include "rng/stream.hpp"
#include "rng/uniform.hpp"

namespace pushpull {
namespace {

exp::Scenario small_scenario() {
  exp::Scenario s;
  s.num_items = 50;
  s.num_requests = 5000;
  return s;
}

void expect_identical(const core::SimResult& a, const core::SimResult& b) {
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.push_transmissions, b.push_transmissions);
  EXPECT_EQ(a.pull_transmissions, b.pull_transmissions);
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    EXPECT_EQ(a.per_class[c].arrived, b.per_class[c].arrived);
    EXPECT_EQ(a.per_class[c].served, b.per_class[c].served);
    EXPECT_DOUBLE_EQ(a.per_class[c].wait.mean(), b.per_class[c].wait.mean());
    EXPECT_DOUBLE_EQ(a.per_class[c].wait.max(), b.per_class[c].wait.max());
  }
}

// --- channel --------------------------------------------------------------

TEST(GilbertElliottChannel, AllGoodChannelNeverCorrupts) {
  fault::ChannelConfig config;  // defaults: never leaves the good state
  fault::GilbertElliottChannel channel(config,
                                       rng::StreamFactory(1).stream("c"));
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(channel.corrupts());
  EXPECT_EQ(channel.transmissions(), 1000u);
  EXPECT_EQ(channel.corrupted(), 0u);
  EXPECT_EQ(channel.bad_state_transmissions(), 0u);
}

TEST(GilbertElliottChannel, AlwaysBadAlwaysCorrupts) {
  fault::ChannelConfig config;
  config.p_good_to_bad = 1.0;
  config.p_bad_to_good = 0.0;
  config.corrupt_bad = 1.0;
  fault::GilbertElliottChannel channel(config,
                                       rng::StreamFactory(1).stream("c"));
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(channel.corrupts());
  EXPECT_EQ(channel.bad_state_transmissions(), 100u);
}

TEST(GilbertElliottChannel, BadStateFractionTracksStationaryDistribution) {
  fault::ChannelConfig config;
  config.p_good_to_bad = 0.1;
  config.p_bad_to_good = 0.3;
  config.corrupt_bad = 1.0;
  fault::GilbertElliottChannel channel(config,
                                       rng::StreamFactory(7).stream("c"));
  const int n = 200000;
  for (int i = 0; i < n; ++i) (void)channel.corrupts();
  const double fraction =
      static_cast<double>(channel.bad_state_transmissions()) / n;
  EXPECT_NEAR(fraction, config.stationary_bad(), 0.01);  // 0.25 exactly
}

TEST(GilbertElliottChannel, ResetRestoresGoodStateAndCounters) {
  fault::ChannelConfig config;
  config.p_good_to_bad = 1.0;
  config.corrupt_bad = 1.0;
  fault::GilbertElliottChannel channel(config,
                                       rng::StreamFactory(1).stream("c"));
  (void)channel.corrupts();
  channel.reset(rng::StreamFactory(1).stream("c"));
  EXPECT_EQ(channel.transmissions(), 0u);
  EXPECT_EQ(channel.corrupted(), 0u);
}

TEST(ChannelConfig, RejectsOutOfRangeProbabilities) {
  fault::ChannelConfig config;
  config.p_good_to_bad = 1.5;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.p_good_to_bad = 0.5;
  config.corrupt_bad = -0.1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(RetryConfig, BackoffGrowsExponentially) {
  fault::RetryConfig retry;
  retry.backoff_base = 1.5;
  retry.backoff_multiplier = 2.0;
  EXPECT_DOUBLE_EQ(retry.backoff_delay(1), 1.5);
  EXPECT_DOUBLE_EQ(retry.backoff_delay(2), 3.0);
  EXPECT_DOUBLE_EQ(retry.backoff_delay(3), 6.0);
}

TEST(RetryConfig, BackoffDelayClampsAtMaxBackoff) {
  fault::RetryConfig retry;
  retry.backoff_base = 1.0;
  retry.backoff_multiplier = 2.0;
  retry.max_backoff = 10.0;
  EXPECT_NO_THROW(retry.validate());
  EXPECT_DOUBLE_EQ(retry.backoff_delay(3), 4.0);   // below the cap: exact
  EXPECT_DOUBLE_EQ(retry.backoff_delay(5), 10.0);  // 16 clamps to 10
  // An adversarial attempt count must not overflow the repeated product to
  // infinity — the whole point of the cap (an event at t = inf deadlocks).
  const double worst = retry.backoff_delay(100000);
  EXPECT_TRUE(std::isfinite(worst));
  EXPECT_DOUBLE_EQ(worst, 10.0);
}

TEST(RetryConfig, RejectsMaxBackoffBelowBaseOrNonFinite) {
  fault::RetryConfig retry;
  retry.backoff_base = 5.0;
  retry.max_backoff = 1.0;  // first retry would already exceed the cap
  EXPECT_THROW(retry.validate(), std::invalid_argument);
  retry.max_backoff = std::numeric_limits<double>::infinity();
  EXPECT_THROW(retry.validate(), std::invalid_argument);
}

TEST(ShedPolicy, ParseRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(fault::parse_shed_policy("tail"), fault::ShedPolicy::kDropTail);
  EXPECT_EQ(fault::parse_shed_policy("priority"),
            fault::ShedPolicy::kDropLowestPriority);
  EXPECT_THROW((void)fault::parse_shed_policy("random"),
               std::invalid_argument);
}

// --- determinism guarantees ----------------------------------------------

TEST(FaultInjection, DisabledFaultConfigIsBitInvisible) {
  const auto built = small_scenario().build();
  core::HybridConfig plain;
  plain.cutoff = 20;
  core::HybridConfig with_default_fault = plain;
  with_default_fault.fault = fault::FaultConfig{};  // explicit default
  expect_identical(exp::run_hybrid(built, plain),
                   exp::run_hybrid(built, with_default_fault));
}

TEST(FaultInjection, ZeroErrorChannelMatchesFaultFreeRunExactly) {
  // Enabling the channel with zero corruption probability draws from its
  // own named rng stream, so the demand/patience streams are untouched and
  // the results are *exactly* equal, not just within tolerance.
  const auto built = small_scenario().build();
  core::HybridConfig plain;
  plain.cutoff = 20;
  core::HybridConfig zero_error = plain;
  zero_error.fault.enabled = true;
  zero_error.fault.channel.p_good_to_bad = 0.2;  // visits the bad state...
  zero_error.fault.channel.corrupt_good = 0.0;   // ...but never corrupts
  zero_error.fault.channel.corrupt_bad = 0.0;
  expect_identical(exp::run_hybrid(built, plain),
                   exp::run_hybrid(built, zero_error));
}

TEST(FaultInjection, FaultyRunIsDeterministic) {
  const auto built = small_scenario().build();
  core::HybridConfig config;
  config.cutoff = 20;
  config.fault.enabled = true;
  config.fault.channel.p_good_to_bad = 0.1;
  config.fault.channel.p_bad_to_good = 0.3;
  config.fault.channel.corrupt_bad = 0.7;
  expect_identical(exp::run_hybrid(built, config),
                   exp::run_hybrid(built, config));
}

// --- recovery accounting --------------------------------------------------

TEST(FaultInjection, CorruptionDelaysButStillServesWithoutPatience) {
  const auto built = small_scenario().build();
  core::HybridConfig clean;
  clean.cutoff = 20;
  core::HybridConfig noisy = clean;
  noisy.fault.enabled = true;
  noisy.fault.channel.p_good_to_bad = 0.1;
  noisy.fault.channel.p_bad_to_good = 0.3;
  noisy.fault.channel.corrupt_bad = 0.7;
  noisy.fault.retry.max_retries = 50;  // effectively unbounded

  const auto before = exp::run_hybrid(built, clean);
  const auto after = exp::run_hybrid(built, noisy);
  EXPECT_EQ(after.overall().served, after.overall().arrived);
  EXPECT_GT(after.overall().wait.mean(), before.overall().wait.mean());
  EXPECT_GT(after.overall().corrupted, 0u);
  EXPECT_GT(after.corrupted_push_transmissions +
                after.corrupted_pull_transmissions,
            0u);
  // The voided share of the airtime slots: none on a perfect channel.
  EXPECT_EQ(before.corruption_ratio(), 0.0);
  EXPECT_GT(after.corruption_ratio(), 0.0);
  EXPECT_LT(after.corruption_ratio(), 1.0);
  EXPECT_EQ(after.total_transmissions(),
            after.push_transmissions + after.pull_transmissions);
}

TEST(FaultInjection, BoundedRetriesProduceLostRequests) {
  const auto built = small_scenario().build();
  core::HybridConfig config;
  config.cutoff = 20;
  config.fault.enabled = true;
  config.fault.channel.p_good_to_bad = 0.5;
  config.fault.channel.p_bad_to_good = 0.2;
  config.fault.channel.corrupt_bad = 0.9;
  config.fault.retry.max_retries = 1;

  const auto result = exp::run_hybrid(built, config);
  const auto overall = result.overall();
  EXPECT_GT(overall.lost, 0u);
  EXPECT_GT(overall.retries, 0u);
  EXPECT_LT(overall.goodput_ratio(), 1.0);
  EXPECT_EQ(overall.served + overall.blocked + overall.abandoned +
                overall.shed + overall.lost,
            overall.arrived);
}

TEST(FaultInjection, ConservationHoldsWithPatienceAndFaults) {
  const auto built = small_scenario().build();
  core::HybridConfig config;
  config.cutoff = 20;
  config.mean_patience = 30.0;
  config.fault.enabled = true;
  config.fault.channel.p_good_to_bad = 0.2;
  config.fault.channel.p_bad_to_good = 0.3;
  config.fault.channel.corrupt_bad = 0.6;
  config.fault.retry.max_retries = 2;
  config.fault.queue_capacity = 16;

  const auto result = exp::run_hybrid(built, config);
  for (const auto& s : result.per_class) {
    EXPECT_EQ(s.served + s.blocked + s.abandoned + s.shed + s.lost,
              s.arrived);
  }
}

// --- overload shedding ----------------------------------------------------

TEST(FaultInjection, BoundedQueueShedsUnderLoadDropTail) {
  auto scenario = small_scenario();
  scenario.arrival_rate = 10.0;  // overload a pure-pull server
  const auto built = scenario.build();
  core::HybridConfig config;
  config.cutoff = 0;
  config.fault.queue_capacity = 4;
  config.fault.shed_policy = fault::ShedPolicy::kDropTail;

  const auto result = exp::run_hybrid(built, config);
  const auto overall = result.overall();
  EXPECT_GT(overall.shed, 0u);
  EXPECT_EQ(overall.served + overall.shed + overall.blocked, overall.arrived);
  EXPECT_LT(overall.goodput_ratio(), 1.0);
}

TEST(FaultInjection, PrioritySheddingProtectsHighPriorityClass) {
  auto scenario = small_scenario();
  scenario.arrival_rate = 10.0;
  const auto built = scenario.build();
  core::HybridConfig config;
  config.cutoff = 0;
  config.fault.queue_capacity = 4;
  config.fault.shed_policy = fault::ShedPolicy::kDropLowestPriority;

  const auto result = exp::run_hybrid(built, config);
  // Class A (priority 3) must lose a smaller fraction than class C
  // (priority 1) — that is the whole point of the policy.
  const auto& a = result.per_class[0];
  const auto& c = result.per_class[2];
  ASSERT_GT(a.arrived, 0u);
  ASSERT_GT(c.arrived, 0u);
  const double shed_a =
      static_cast<double>(a.shed) / static_cast<double>(a.arrived);
  const double shed_c =
      static_cast<double>(c.shed) / static_cast<double>(c.arrived);
  EXPECT_LT(shed_a, shed_c);
  EXPECT_GT(result.overall().shed, 0u);
}

TEST(FaultInjection, ShedCountMonotoneInOfferedLoad) {
  struct Input {
    exp::Scenario scenario;
    std::size_t queue_capacity;
    std::vector<double> rates;
  };
  // A small catalog behind a queue of 4, and the fault_degradation figure's
  // load sweep at its default size and seed: the §5.1 scenario, 60,000
  // requests, behind a drop-tail queue of 8.
  exp::Scenario paper;
  paper.num_requests = 60000;
  const Input inputs[] = {{small_scenario(), 4, {2.0, 5.0, 10.0}},
                          {paper, 8, {2.0, 4.0, 6.0, 8.0, 10.0}}};
  for (const Input& input : inputs) {
    std::uint64_t previous = 0;
    for (const double rate : input.rates) {
      auto scenario = input.scenario;
      scenario.arrival_rate = rate;
      const auto built = scenario.build();
      core::HybridConfig config;
      config.cutoff = 0;
      config.fault.queue_capacity = input.queue_capacity;
      const auto result = exp::run_hybrid(built, config);
      EXPECT_GE(result.overall().shed, previous)
          << "queue " << input.queue_capacity << ", rate " << rate;
      previous = result.overall().shed;
    }
  }
}

// The fault_degradation figure's channel sweep at its default size and
// seed: the §5.1 scenario, 60,000 requests, K = 40, recovery probability
// 0.30, 75% corruption in the bad state, up to 3 retries. Mean delay stays
// ordered A < B < C at every good→bad probability up to 0.40. The order is
// a large-sample result: at 6,000 requests A and B cross at 0.40.
TEST(FaultInjection, ClassDelayOrderSurvivesBurstErrors) {
  exp::Scenario scenario;
  scenario.num_requests = 60000;
  const auto built = scenario.build();
  for (const double p_gb : {0.0, 0.02, 0.05, 0.10, 0.20, 0.40}) {
    core::HybridConfig config;
    config.cutoff = 40;
    config.fault.enabled = true;
    config.fault.channel.p_good_to_bad = p_gb;
    config.fault.channel.p_bad_to_good = 0.30;
    config.fault.channel.corrupt_good = 0.0;
    config.fault.channel.corrupt_bad = 0.75;
    config.fault.retry.max_retries = 3;
    const auto result = exp::run_hybrid(built, config);
    EXPECT_LT(result.mean_wait(0), result.mean_wait(1)) << "p_gb " << p_gb;
    EXPECT_LT(result.mean_wait(1), result.mean_wait(2)) << "p_gb " << p_gb;
  }
}

TEST(FaultConfig, ValidatesNestedConfigs) {
  fault::FaultConfig config;
  EXPECT_FALSE(config.active());
  EXPECT_NO_THROW(config.validate());
  config.queue_capacity = 5;
  EXPECT_TRUE(config.active());
  config.retry.backoff_base = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(FaultConfig, HybridServerRejectsInvalidFaultConfig) {
  const auto built = small_scenario().build();
  core::HybridConfig config;
  config.cutoff = 10;
  config.fault.enabled = true;
  config.fault.channel.p_bad_to_good = 2.0;
  EXPECT_THROW(
      core::HybridServer(built.catalog, built.population, config),
      std::invalid_argument);
}

// --- drop-lowest-priority victim selection (property) ---------------------

struct Queued {
  double priority = 0.0;
  std::uint64_t id = 0;
};

/// Reference implementation of the shedding rule, written as the spec
/// reads: globally minimal priority, ties to the highest id.
const Queued* reference_victim(const std::vector<Queued>& queue) {
  const Queued* best = nullptr;
  for (const auto& q : queue) {
    const bool better =
        best == nullptr || q.priority < best->priority ||
        (q.priority == best->priority && q.id > best->id);
    if (better) best = &q;
  }
  return best;
}

TEST(LowestPriorityVictim, MatchesReferenceOnSeededRandomQueues) {
  auto eng = rng::StreamFactory(20260806).stream("shed-property");
  for (int round = 0; round < 500; ++round) {
    const std::size_t n = 1 + rng::uniform_below(eng, 32);
    std::vector<Queued> queue(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Few distinct priority values so ties are the common case, like a
      // real population with a handful of service classes.
      queue[i].priority = static_cast<double>(rng::uniform_below(eng, 4));
      queue[i].id = i;
    }

    fault::LowestPriorityVictim<Queued> scan;
    for (const auto& q : queue) scan.consider(q, q.priority, q.id);
    const Queued* expected = reference_victim(queue);
    ASSERT_NE(scan.victim(), nullptr);
    EXPECT_EQ(scan.victim(), expected);

    // The victim's priority is a global minimum.
    for (const auto& q : queue) EXPECT_LE(scan.priority(), q.priority);

    // Feeding the same queue rotated selects the same victim: eviction
    // must not depend on queue iteration order.
    const std::size_t rot = rng::uniform_below(eng, n);
    fault::LowestPriorityVictim<Queued> rotated;
    for (std::size_t i = 0; i < n; ++i) {
      const Queued& q = queue[(i + rot) % n];
      rotated.consider(q, q.priority, q.id);
    }
    ASSERT_NE(rotated.victim(), nullptr);
    EXPECT_EQ(rotated.victim()->id, expected->id);

    // arrival_yields_to is exactly "arrival no more important than the
    // victim", for every priority an arrival could have.
    for (int p = 0; p < 5; ++p) {
      const double arrival = static_cast<double>(p);
      EXPECT_EQ(scan.arrival_yields_to(arrival),
                arrival <= scan.priority());
    }
  }
}

TEST(FaultInjection, SheddingReconcilesWithQueueCapConservation) {
  // Seeded random arrival sequences: whatever the eviction pattern, every
  // arrival must settle exactly once and the hard cap must never be
  // exceeded — shedding redistributes loss, it cannot create or lose
  // requests.
  for (const std::uint64_t seed : {1ULL, 7ULL, 20260806ULL}) {
    auto scenario = small_scenario();
    scenario.seed = seed;
    scenario.arrival_rate = 10.0;
    const auto built = scenario.build();
    core::HybridConfig config;
    config.cutoff = 0;
    config.fault.queue_capacity = 4;
    config.fault.shed_policy = fault::ShedPolicy::kDropLowestPriority;
    const auto result = exp::run_hybrid(built, config);
    const auto o = result.overall();
    EXPECT_EQ(o.arrived, o.served + o.blocked + o.abandoned + o.shed +
                             o.lost + o.rejected);
    EXPECT_LE(result.max_pull_queue_len, config.fault.queue_capacity);
    EXPECT_GT(o.shed, 0u);
  }
}

TEST(LowestPriorityVictim, EmptyScanYieldsToEveryArrival) {
  const fault::LowestPriorityVictim<Queued> scan;
  EXPECT_EQ(scan.victim(), nullptr);
  EXPECT_TRUE(scan.arrival_yields_to(0.0));
  EXPECT_TRUE(scan.arrival_yields_to(1.0e9));
}

TEST(LowestPriorityVictim, PriorityTiesPreferTheYoungestRequest) {
  const std::vector<Queued> queue = {
      {2.0, 10}, {1.0, 11}, {1.0, 42}, {1.0, 12}, {3.0, 99}};
  fault::LowestPriorityVictim<Queued> scan;
  for (const auto& q : queue) scan.consider(q, q.priority, q.id);
  ASSERT_NE(scan.victim(), nullptr);
  EXPECT_EQ(scan.victim()->id, 42u);
  EXPECT_DOUBLE_EQ(scan.priority(), 1.0);
}

}  // namespace
}  // namespace pushpull
