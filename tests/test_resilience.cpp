// Resilience layer: seeded crash/recovery, the overload degradation
// ladder, snapshot codec, the machine-verified invariant suite, and the
// chaos harness's determinism guarantees (bit-identical replay, jobs
// independence, warm-recovery ≡ fault-free under an empty schedule,
// bit-invisible defaults checked against the committed CLI goldens).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/hybrid_server.hpp"
#include "exp/chaos.hpp"
#include "exp/scenario.hpp"
#include "resilience/crash.hpp"
#include "resilience/invariants.hpp"
#include "resilience/overload.hpp"
#include "resilience/resilience_config.hpp"
#include "resilience/snapshot.hpp"
#include "rng/stream.hpp"
#include "runtime/run_reporter.hpp"
#include "storm_audit.hpp"

namespace pushpull {
namespace {

exp::Scenario small_scenario() {
  exp::Scenario s;
  s.num_items = 50;
  s.num_requests = 4000;
  return s;
}

core::HybridConfig crash_config(resilience::RecoveryMode mode) {
  core::HybridConfig config;
  config.cutoff = 10;
  config.resilience.crash.enabled = true;
  config.resilience.crash.rate = 0.01;
  config.resilience.crash.downtime = 20.0;
  config.resilience.crash.recovery = mode;
  config.resilience.crash.snapshot_interval = 40.0;
  return config;
}

// --- CrashSchedule --------------------------------------------------------

TEST(CrashSchedule, DeterministicForAGivenStream) {
  resilience::CrashConfig config;
  config.enabled = true;
  config.rate = 0.02;
  config.downtime = 25.0;
  const auto a = resilience::CrashSchedule::poisson(
      config, 5000.0, rng::StreamFactory(99).stream("crash-schedule"));
  const auto b = resilience::CrashSchedule::poisson(
      config, 5000.0, rng::StreamFactory(99).stream("crash-schedule"));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.times(), b.times());
}

TEST(CrashSchedule, RespectsDowntimeSpacingAndHorizon) {
  resilience::CrashConfig config;
  config.enabled = true;
  config.rate = 0.5;  // dense: spacing must come from the downtime guard
  config.downtime = 30.0;
  const auto schedule = resilience::CrashSchedule::poisson(
      config, 2000.0, rng::StreamFactory(7).stream("crash-schedule"));
  ASSERT_GT(schedule.size(), 1u);
  EXPECT_LE(schedule.size(), config.max_crashes);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_GE(schedule.times()[i], 0.0);
    EXPECT_LE(schedule.times()[i], 2000.0);
    if (i > 0) {
      // No crash lands inside the previous crash's downtime.
      EXPECT_GE(schedule.times()[i] - schedule.times()[i - 1],
                config.downtime);
    }
  }
}

TEST(CrashSchedule, DisabledOrZeroRateIsEmpty) {
  resilience::CrashConfig config;
  EXPECT_TRUE(resilience::CrashSchedule::poisson(
                  config, 1000.0,
                  rng::StreamFactory(1).stream("crash-schedule"))
                  .empty());
  config.enabled = true;
  config.rate = 0.0;
  EXPECT_TRUE(resilience::CrashSchedule::poisson(
                  config, 1000.0,
                  rng::StreamFactory(1).stream("crash-schedule"))
                  .empty());
}

TEST(CrashSchedule, MaxCrashesBoundsAdversarialRates) {
  resilience::CrashConfig config;
  config.enabled = true;
  config.rate = 1000.0;
  config.downtime = 0.001;
  config.max_crashes = 5;
  const auto schedule = resilience::CrashSchedule::poisson(
      config, 1.0e9, rng::StreamFactory(3).stream("crash-schedule"));
  EXPECT_EQ(schedule.size(), 5u);
}

// --- OverloadController ---------------------------------------------------

TEST(OverloadController, ClimbsOneRungPerUpdateWithStickyExit) {
  resilience::OverloadConfig config;
  config.enabled = true;
  resilience::OverloadController ctl(config);

  // Saturating pressure climbs exactly one rung per evaluation.
  EXPECT_EQ(ctl.update(1.0, 1.0, 0.0),
            resilience::OverloadLevel::kShedLowPriority);
  EXPECT_EQ(ctl.update(2.0, 1.0, 0.0), resilience::OverloadLevel::kWidenPush);
  EXPECT_EQ(ctl.update(3.0, 1.0, 0.0),
            resilience::OverloadLevel::kAdmissionControl);
  EXPECT_EQ(ctl.update(4.0, 1.0, 0.0), resilience::OverloadLevel::kBrownout);
  EXPECT_EQ(ctl.update(5.0, 1.0, 0.0), resilience::OverloadLevel::kBrownout);
  EXPECT_EQ(ctl.max_level(), resilience::OverloadLevel::kBrownout);

  // Pressure inside the hysteresis band (between exit[3]=0.80 and
  // enter[3]=0.95) keeps the current level — sticky, no flapping.
  EXPECT_EQ(ctl.update(6.0, 0.85, 0.0), resilience::OverloadLevel::kBrownout);

  // Calm input relaxes one rung at a time, never jumps to normal.
  EXPECT_EQ(ctl.update(7.0, 0.0, 0.0),
            resilience::OverloadLevel::kAdmissionControl);
  EXPECT_EQ(ctl.update(8.0, 0.0, 0.0), resilience::OverloadLevel::kWidenPush);
  EXPECT_EQ(ctl.update(9.0, 0.0, 0.0),
            resilience::OverloadLevel::kShedLowPriority);
  EXPECT_EQ(ctl.update(10.0, 0.0, 0.0), resilience::OverloadLevel::kNormal);

  // The log is ordered and covers every move up and down.
  const auto& log = ctl.transitions();
  ASSERT_EQ(log.size(), 8u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LT(log[i - 1].time, log[i].time);
    EXPECT_EQ(log[i - 1].to, log[i].from);  // a connected path, no jumps
  }
}

TEST(OverloadController, BlockingEwmaAloneCanEscalate) {
  resilience::OverloadConfig config;
  config.enabled = true;
  config.blocking_ref = 0.5;
  resilience::OverloadController ctl(config);
  // Occupancy low, blocking EWMA at the reference → pressure 1.0.
  EXPECT_EQ(ctl.update(1.0, 0.1, 0.5),
            resilience::OverloadLevel::kShedLowPriority);
}

TEST(OverloadController, ResetClearsLevelAndLog) {
  resilience::OverloadConfig config;
  config.enabled = true;
  resilience::OverloadController ctl(config);
  (void)ctl.update(1.0, 1.0, 0.0);
  ctl.reset();
  EXPECT_EQ(ctl.level(), resilience::OverloadLevel::kNormal);
  EXPECT_EQ(ctl.max_level(), resilience::OverloadLevel::kNormal);
  EXPECT_TRUE(ctl.transitions().empty());
}

TEST(OverloadConfig, RejectsNonMonotoneHysteresisBands) {
  resilience::OverloadConfig config;
  config.enabled = true;
  config.exit[0] = config.enter[0];  // exit must be strictly below enter
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// --- snapshot codec -------------------------------------------------------

TEST(Snapshot, RoundTripsBitExactly) {
  resilience::QueueSnapshot snap;
  snap.time = 1234.0 / 3.0;
  snap.queued = {5, 1, 99, 42};
  const std::string record = resilience::encode_snapshot(snap, 0xFEED);
  const auto restored = resilience::decode_snapshot(record, 0xFEED);
  EXPECT_EQ(restored.time, snap.time);
  EXPECT_EQ(restored.queued, snap.queued);
}

TEST(Snapshot, RejectsWrongFingerprintSchemaOrTruncation) {
  resilience::QueueSnapshot snap;
  snap.time = 10.0;
  snap.queued = {1, 2, 3};
  const std::string record = resilience::encode_snapshot(snap, 7);
  EXPECT_THROW((void)resilience::decode_snapshot(record, 8),
               std::runtime_error);
  EXPECT_THROW((void)resilience::decode_snapshot("snap0 " + record, 7),
               std::runtime_error);
  EXPECT_THROW((void)resilience::decode_snapshot(
                   record.substr(0, record.size() - 2), 7),
               std::runtime_error);
}

// --- invariant suite ------------------------------------------------------

resilience::InvariantInputs consistent_inputs() {
  resilience::InvariantInputs in;
  in.per_class.resize(1);
  auto& s = in.per_class[0];
  s.arrived = 10;
  s.served = 6;
  s.blocked = 1;
  s.abandoned = 1;
  s.shed = 1;
  s.lost = 0;
  s.rejected = 1;
  in.queue_capacity = 4;
  in.max_queue_len = 4;
  in.end_time = 100.0;
  return in;
}

TEST(Invariants, PassOnConsistentCounters) {
  const auto report = resilience::check_invariants(consistent_inputs());
  EXPECT_TRUE(report.all_pass()) << resilience::format_report(report);
  EXPECT_EQ(report.failures(), 0u);
}

TEST(Invariants, CatchBrokenConservation) {
  auto in = consistent_inputs();
  in.per_class[0].served -= 1;  // one request vanished
  const auto report = resilience::check_invariants(in);
  EXPECT_FALSE(report.all_pass());
  EXPECT_GE(report.failures(), 1u);
}

TEST(Invariants, CatchQueueCapViolationAndOrderViolations) {
  auto in = consistent_inputs();
  in.max_queue_len = in.queue_capacity + 1;
  EXPECT_FALSE(resilience::check_invariants(in).all_pass());

  in = consistent_inputs();
  in.event_order_violations = 2;
  EXPECT_FALSE(resilience::check_invariants(in).all_pass());

  in = consistent_inputs();
  in.end_time = -1.0;
  EXPECT_FALSE(resilience::check_invariants(in).all_pass());
}

TEST(Invariants, MergePoolsChecksAcrossReplications) {
  const auto one = resilience::check_invariants(consistent_inputs());
  auto pooled = one;
  pooled.merge(one);
  EXPECT_EQ(pooled.checks.size(), 2 * one.checks.size());
  EXPECT_TRUE(pooled.all_pass());
}

// --- crash/recovery through the full server -------------------------------

TEST(CrashRecovery, ColdCrashConservesEveryRequestAndStorms) {
  const auto built = small_scenario().build();
  const auto config = crash_config(resilience::RecoveryMode::kCold);
  const auto result = exp::run_hybrid(built, config);

  EXPECT_GT(result.crashes, 0u);
  EXPECT_GT(result.storm_rerequests, 0u);
  EXPECT_GT(result.total_downtime, 0.0);
  EXPECT_EQ(result.event_order_violations, 0u);

  resilience::InvariantInputs in;
  in.per_class = result.per_class;
  in.max_queue_len = result.max_pull_queue_len;
  in.event_order_violations = result.event_order_violations;
  in.end_time = result.end_time;
  const auto report = resilience::check_invariants(in);
  EXPECT_TRUE(report.all_pass()) << resilience::format_report(report);
}

TEST(CrashRecovery, CrashyRunsReplayBitIdentically) {
  const auto built = small_scenario().build();
  const auto config = crash_config(resilience::RecoveryMode::kCold);
  const auto a = exp::run_hybrid(built, config);
  const auto b = exp::run_hybrid(built, config);
  EXPECT_EQ(exp::serialize_result(a), exp::serialize_result(b));
}

TEST(CrashRecovery, WarmRecoveryStormsNoMoreThanCold) {
  const auto built = small_scenario().build();
  const auto cold =
      exp::run_hybrid(built, crash_config(resilience::RecoveryMode::kCold));
  const auto warm =
      exp::run_hybrid(built, crash_config(resilience::RecoveryMode::kWarm));
  // Both see the identical crash schedule (same named stream), so the only
  // difference is how much queue state survives: warm restores the latest
  // snapshot, cold loses everything.
  EXPECT_EQ(warm.crashes, cold.crashes);
  EXPECT_GT(cold.storm_rerequests, 0u);
  EXPECT_LE(warm.storm_rerequests, cold.storm_rerequests);
}

TEST(CrashRecovery, WarmWithEmptyScheduleEqualsFaultFreeBitExactly) {
  const auto built = small_scenario().build();
  core::HybridConfig plain;
  plain.cutoff = 10;

  core::HybridConfig armed = plain;
  armed.resilience.crash.enabled = true;
  armed.resilience.crash.rate = 0.0;  // armed but never fires
  armed.resilience.crash.recovery = resilience::RecoveryMode::kWarm;

  EXPECT_EQ(exp::serialize_result(exp::run_hybrid(built, plain)),
            exp::serialize_result(exp::run_hybrid(built, armed)));
}

// A crash that catches a broadcast whose item the ladder shrank out of the
// push set during the airtime must storm its passengers: re-parked on an
// item no cycle carries, they would wait for a later widen-push, or
// forever. The audit balances every storm of a run that hits this.
TEST(CrashRecovery, StormsBroadcastPassengersOfAnItemNoLongerPushed) {
  exp::Scenario scenario;
  scenario.num_items = 100;
  scenario.num_requests = 20000;
  scenario.arrival_rate = 0.4;
  scenario.seed = 2;
  const auto built = scenario.build();
  core::HybridConfig config;
  config.cutoff = 10;
  config.seed = 2;
  config.resilience.crash.enabled = true;
  config.resilience.crash.rate = 0.05;
  config.resilience.crash.downtime = 0.5;
  config.resilience.crash.max_crashes = 100000;
  config.resilience.overload.enabled = true;
  config.resilience.overload.eval_interval = 0.3;
  config.resilience.overload.capacity_ref = 24;
  config.resilience.overload.cutoff_step = 30;
  config.resilience.overload.enter = {0.30, 0.40, 0.95, 0.99};
  config.resilience.overload.exit = {0.20, 0.35, 0.90, 0.97};

  test::StormAudit audit;
  core::HybridServer server(built.catalog, built.population, config);
  server.set_tracer(audit.tracer());
  const auto result = server.run(built.trace.requests(), 0.0, &audit);

  const auto verdict = audit.check(config.cutoff);
  EXPECT_TRUE(verdict.failures.empty()) << verdict.failures;
  EXPECT_GT(verdict.broadcasts_stormed, 0u)
      << "the run must reach the shrink-then-crash path";
  EXPECT_EQ(verdict.crashes, result.crashes);
  resilience::InvariantInputs in;
  in.per_class = result.per_class;
  in.max_queue_len = result.max_pull_queue_len;
  in.event_order_violations = result.event_order_violations;
  in.end_time = result.end_time;
  const auto report = resilience::check_invariants(in);
  EXPECT_TRUE(report.all_pass()) << resilience::format_report(report);
}

// Storm re-requests are pending work: a drain must wait for them, and the
// ledger must count them, so arrived = settled + unsettled however the
// drain lands among the crashes.
TEST(CrashRecovery, DrainDuringAStormKeepsTheLedger) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    exp::Scenario scenario;
    scenario.num_requests = 4000;
    scenario.seed = seed;
    const auto built = scenario.build();
    core::HybridConfig config;
    config.cutoff = 20;
    config.seed = seed;
    config.resilience.crash.enabled = true;
    config.resilience.crash.rate = 0.01;
    config.resilience.crash.downtime = 20.0;
    for (const double share : {0.3, 0.5, 0.7, 0.9}) {
      core::HybridServer server(built.catalog, built.population, config);
      const auto r = server.run(built.trace.requests(),
                                share * built.trace.span(), nullptr);
      std::uint64_t arrived = 0;
      std::uint64_t settled = 0;
      for (const auto& s : r.per_class) {
        arrived += s.arrived;
        settled += s.served + s.blocked + s.abandoned + s.shed + s.lost +
                   s.rejected;
      }
      EXPECT_GT(r.crashes, 0u) << "seed " << seed << " drain " << share;
      EXPECT_EQ(arrived, settled + r.unsettled)
          << "seed " << seed << " drain " << share;
    }
  }
}

// The chaos_resilience figure's grid at its default size and seed: the
// §5.1 scenario at offered load 8, 60,000 requests, K = 20, cold recovery
// after 30 units down. A higher crash rate only shortens the same stream's
// inter-crash gaps, so with the ladder off and on alike the crash count
// never falls as the rate rises.
TEST(CrashRecovery, CrashCountNeverFallsAsTheRateRises) {
  exp::Scenario scenario;
  scenario.num_requests = 60000;
  scenario.arrival_rate = 8.0;
  const auto built = scenario.build();
  for (const bool ladder : {false, true}) {
    std::uint64_t previous = 0;
    for (const double rate : {0.0, 0.002, 0.005, 0.01, 0.02}) {
      core::HybridConfig config;
      config.cutoff = 20;
      config.resilience.crash.enabled = rate > 0.0;
      config.resilience.crash.rate = rate;
      config.resilience.crash.downtime = 30.0;
      config.resilience.crash.recovery = resilience::RecoveryMode::kCold;
      config.resilience.overload.enabled = ladder;
      config.resilience.overload.eval_interval = 5.0;
      config.resilience.overload.capacity_ref = 32;
      const auto result = exp::run_hybrid(built, config);
      EXPECT_GE(result.crashes, previous)
          << "rate " << rate << ", ladder " << ladder;
      previous = result.crashes;
    }
    EXPECT_GT(previous, 0u) << "ladder " << ladder;
  }
}

TEST(DegradationLadder, EngagesUnderPressureAndKeepsConservation) {
  auto scenario = small_scenario();
  scenario.arrival_rate = 12.0;
  const auto built = scenario.build();
  core::HybridConfig config;
  config.cutoff = 0;  // pure pull: maximal queue pressure
  config.resilience.overload.enabled = true;
  config.resilience.overload.eval_interval = 2.0;
  config.resilience.overload.capacity_ref = 16;
  const auto result = exp::run_hybrid(built, config);

  EXPECT_GT(result.max_overload_level, resilience::OverloadLevel::kNormal);
  EXPECT_FALSE(result.overload_transitions.empty());
  for (std::size_t i = 1; i < result.overload_transitions.size(); ++i) {
    EXPECT_LE(result.overload_transitions[i - 1].time,
              result.overload_transitions[i].time);
  }

  resilience::InvariantInputs in;
  in.per_class = result.per_class;
  in.max_queue_len = result.max_pull_queue_len;
  in.event_order_violations = result.event_order_violations;
  in.end_time = result.end_time;
  const auto report = resilience::check_invariants(in);
  EXPECT_TRUE(report.all_pass()) << resilience::format_report(report);
}

// --- chaos harness --------------------------------------------------------

TEST(Chaos, SpikeWarpIsDeterministicOrderPreservingAndGated) {
  const auto built = small_scenario().build();
  // Factor 1 (or zero duration) must return the trace untouched.
  const auto same =
      exp::apply_arrival_spike(built.trace, 100.0, 50.0, 1.0);
  ASSERT_EQ(same.requests().size(), built.trace.requests().size());
  for (std::size_t i = 0; i < same.requests().size(); ++i) {
    EXPECT_EQ(same.requests()[i].arrival, built.trace.requests()[i].arrival);
  }

  const auto warped =
      exp::apply_arrival_spike(built.trace, 100.0, 50.0, 4.0);
  ASSERT_EQ(warped.requests().size(), built.trace.requests().size());
  double prev = 0.0;
  for (std::size_t i = 0; i < warped.requests().size(); ++i) {
    const auto& before = built.trace.requests()[i];
    const auto& after = warped.requests()[i];
    EXPECT_EQ(after.id, before.id);
    EXPECT_EQ(after.item, before.item);
    EXPECT_EQ(after.cls, before.cls);
    EXPECT_GE(after.arrival, prev);  // order preserved
    prev = after.arrival;
    if (before.arrival <= 100.0) {
      EXPECT_EQ(after.arrival, before.arrival);  // before the spike: exact
    }
  }
}

exp::ChaosSummary chaos_run(std::size_t jobs,
                            runtime::RunReporter* reporter = nullptr) {
  auto scenario = small_scenario();
  scenario.seed = 11;
  scenario.jobs = jobs;
  auto config = crash_config(resilience::RecoveryMode::kCold);
  config.resilience.overload.enabled = true;
  exp::ChaosOptions options;
  options.replications = 4;
  options.reporter = reporter;
  options.spike_factor = 3.0;
  options.spike_start = 100.0;
  options.spike_duration = 150.0;
  return exp::run_chaos(scenario, config, options);
}

TEST(Chaos, InvariantSuitePassesAndReplayIsBitIdentical) {
  const auto summary = chaos_run(1);
  EXPECT_EQ(summary.replications, 4u);
  EXPECT_GT(summary.crashes, 0u);
  EXPECT_TRUE(summary.replay_identical);
  EXPECT_TRUE(summary.invariants.all_pass())
      << resilience::format_report(summary.invariants);
}

TEST(Chaos, JobsCountNeverChangesTheNumbers) {
  const auto serial = chaos_run(1);
  const auto parallel = chaos_run(3);
  EXPECT_EQ(serial.crashes, parallel.crashes);
  EXPECT_EQ(serial.storm_rerequests, parallel.storm_rerequests);
  EXPECT_EQ(serial.largest_storm, parallel.largest_storm);
  EXPECT_EQ(serial.total_downtime, parallel.total_downtime);
  EXPECT_EQ(serial.overall_delay.mean(), parallel.overall_delay.mean());
  EXPECT_EQ(serial.overall_delay.variance(),
            parallel.overall_delay.variance());
  EXPECT_EQ(serial.total_cost.mean(), parallel.total_cost.mean());
  EXPECT_EQ(serial.goodput.mean(), parallel.goodput.mean());
  EXPECT_EQ(serial.overload_transitions, parallel.overload_transitions);
  EXPECT_EQ(serial.max_overload_level, parallel.max_overload_level);
  ASSERT_EQ(serial.per_class.size(), parallel.per_class.size());
  for (std::size_t c = 0; c < serial.per_class.size(); ++c) {
    EXPECT_EQ(serial.per_class[c].arrived, parallel.per_class[c].arrived);
    EXPECT_EQ(serial.per_class[c].served, parallel.per_class[c].served);
    EXPECT_EQ(serial.per_class[c].stormed, parallel.per_class[c].stormed);
    EXPECT_EQ(serial.per_class[c].rejected, parallel.per_class[c].rejected);
  }
}

TEST(Chaos, ParallelRunEmitsProgressJsonl) {
  // The worker count comes from Scenario::jobs: the run_start line names
  // the four workers, and every replication reports one job line.
  std::ostringstream sink;
  runtime::RunReporter reporter(sink);
  (void)chaos_run(4, &reporter);
  std::istringstream lines(sink.str());
  std::string start;
  ASSERT_TRUE(std::getline(lines, start));
  EXPECT_NE(start.find(R"("event":"run_start","label":"chaos","jobs":4,)"
                       R"("workers":4})"),
            std::string::npos)
      << start;
  std::size_t jobs = 0;
  std::string last;
  for (std::string line; std::getline(lines, line);) {
    if (line.find(R"("event":"job")") != std::string::npos) ++jobs;
    last = line;
  }
  EXPECT_EQ(jobs, 4u);
  EXPECT_NE(last.find(R"("event":"run_end","label":"chaos")"),
            std::string::npos)
      << last;
}

// --- bit-invisible defaults: committed CLI goldens ------------------------

#if defined(PUSHPULL_CLI_PATH) && defined(PUSHPULL_GOLDEN_DIR)

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs the real CLI binary and byte-compares stdout against the golden
/// committed before the resilience layer existed: with crashes and the
/// ladder disabled (the default), the new code must be invisible.
void expect_golden(const std::string& args, const std::string& golden_name) {
  // One file per golden: ctest -j runs the cases as concurrent processes.
  const std::string tmp = "resilience_golden_" + golden_name;
  const std::string cmd =
      std::string(PUSHPULL_CLI_PATH) + " " + args + " > " + tmp;
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const std::string expected =
      slurp(std::string(PUSHPULL_GOLDEN_DIR) + "/" + golden_name);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(slurp(tmp), expected)
      << "CLI output drifted from pre-resilience golden " << golden_name;
  std::remove(tmp.c_str());
}

TEST(GoldenOutput, SimulateIsByteIdenticalToPreResilienceSeed) {
  expect_golden("simulate --requests 4000 --seed 7", "simulate_default.txt");
}

TEST(GoldenOutput, ReplicateIsByteIdenticalToPreResilienceSeed) {
  expect_golden("replicate --reps 4 --requests 4000 --jobs 2 --seed 7",
                "replicate_default.txt");
}

#endif  // PUSHPULL_CLI_PATH && PUSHPULL_GOLDEN_DIR

}  // namespace
}  // namespace pushpull
