// Tests for the live serving frontend (src/serve/): clock backends, the
// bounded completion queue, the load driver's pacer-invariant plan, the
// accelerated event loop's determinism, and the record/replay bridge back
// into the deterministic DES core.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/hybrid_server.hpp"
#include "serve/serve.hpp"

namespace pushpull::serve {
namespace {

// ---------------------------------------------------------------------------
// Clock backends
// ---------------------------------------------------------------------------

TEST(VirtualClock, StartsAtZeroAndAdvancesMonotonically) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0.0);
  EXPECT_FALSE(clock.realtime());
  clock.advance_to(3.5);
  EXPECT_EQ(clock.now(), 3.5);
  clock.advance_to(1.0);  // moving backwards is ignored
  EXPECT_EQ(clock.now(), 3.5);
  clock.advance_to(3.5);
  EXPECT_EQ(clock.now(), 3.5);
}

TEST(VirtualClock, NothingIsWorthWaitingFor) {
  VirtualClock clock;
  EXPECT_EQ(clock.seconds_until(100.0), 0.0);
  clock.advance_to(5.0);
  EXPECT_EQ(clock.seconds_until(2.0), 0.0);
}

TEST(WallClock, ReportsRealtimeAndAdvances) {
  const auto clock = make_wall_clock(1000.0);  // 1000 units per wall second
  EXPECT_TRUE(clock->realtime());
  const double a = clock->now();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double b = clock->now();
  EXPECT_GE(a, 0.0);
  EXPECT_GT(b, a);
  // A serve-time instant already behind us has no wait budget left.
  EXPECT_EQ(clock->seconds_until(0.0), 0.0);
  // One ahead has a bounded, scale-converted budget.
  const double budget = clock->seconds_until(b + 1000.0);
  EXPECT_GT(budget, 0.0);
  EXPECT_LE(budget, 1.0);
}

TEST(WallClock, RejectsNonPositiveOrNonFiniteScale) {
  EXPECT_THROW((void)make_wall_clock(0.0), std::invalid_argument);
  EXPECT_THROW((void)make_wall_clock(-1.0), std::invalid_argument);
  EXPECT_THROW((void)make_wall_clock(
                   std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW((void)make_wall_clock(std::nan("")), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Completion queue
// ---------------------------------------------------------------------------

Completion arrival_at(double t) {
  Completion c;
  c.kind = CompletionKind::kArrival;
  c.time = t;
  return c;
}

TEST(CompletionQueue, RejectsZeroCapacity) {
  EXPECT_THROW(CompletionQueue(0), std::invalid_argument);
}

TEST(CompletionQueue, DeliversInFifoOrder) {
  CompletionQueue q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.try_post(arrival_at(i)));
  for (int i = 0; i < 5; ++i) {
    const auto c = q.pop(0.0);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->time, static_cast<double>(i));
  }
  EXPECT_FALSE(q.pop(0.0).has_value());
  EXPECT_EQ(q.posted(), 5u);
  EXPECT_EQ(q.high_water(), 5u);
}

TEST(CompletionQueue, TryPostRefusesWhenFull) {
  CompletionQueue q(2);
  EXPECT_TRUE(q.try_post(arrival_at(0)));
  EXPECT_TRUE(q.try_post(arrival_at(1)));
  EXPECT_FALSE(q.try_post(arrival_at(2)));
  (void)q.pop(0.0);
  EXPECT_TRUE(q.try_post(arrival_at(3)));
}

TEST(CompletionQueue, FullQueueBackpressuresThenDrains) {
  CompletionQueue q(1);
  ASSERT_TRUE(q.try_post(arrival_at(0)));
  std::atomic<bool> posted{false};
  std::thread producer([&q, &posted] {
    // Blocks until the consumer pops, then succeeds.
    EXPECT_TRUE(q.post(arrival_at(1)));
    posted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(posted.load());
  EXPECT_TRUE(q.pop(1.0).has_value());
  producer.join();
  EXPECT_TRUE(posted.load());
  EXPECT_TRUE(q.pop(1.0).has_value());
}

TEST(CompletionQueue, CloseReleasesProducersAndDrainsConsumers) {
  CompletionQueue q(4);
  ASSERT_TRUE(q.try_post(arrival_at(0)));
  q.close();
  EXPECT_TRUE(q.closed());
  // Posts after close are dropped...
  EXPECT_FALSE(q.post(arrival_at(1)));
  EXPECT_FALSE(q.try_post(arrival_at(2)));
  // ...but queued completions still drain.
  EXPECT_TRUE(q.pop(0.0).has_value());
  EXPECT_FALSE(q.pop(0.0).has_value());
}

TEST(CompletionQueue, CloseUnblocksABlockedProducer) {
  CompletionQueue q(1);
  ASSERT_TRUE(q.try_post(arrival_at(0)));
  std::thread producer([&q] { EXPECT_FALSE(q.post(arrival_at(1))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  producer.join();
}

// ---------------------------------------------------------------------------
// ServeConfig
// ---------------------------------------------------------------------------

TEST(ServeConfig, DefaultsValidate) {
  EXPECT_NO_THROW(ServeConfig{}.validate());
}

TEST(ServeConfig, RejectsBadValues) {
  const auto expect_rejected = [](auto mutate) {
    ServeConfig c;
    mutate(c);
    EXPECT_THROW(c.validate(), std::invalid_argument);
  };
  expect_rejected([](ServeConfig& c) { c.num_items = 0; });
  expect_rejected([](ServeConfig& c) { c.num_classes = 0; });
  expect_rejected([](ServeConfig& c) { c.duration = 0.0; });
  expect_rejected([](ServeConfig& c) { c.duration = -5.0; });
  expect_rejected([](ServeConfig& c) { c.target_qps = 0.0; });
  expect_rejected([](ServeConfig& c) { c.time_scale = 0.0; });
  expect_rejected([](ServeConfig& c) { c.pacers = 0; });
  expect_rejected([](ServeConfig& c) { c.queue_capacity = 0; });
  expect_rejected([](ServeConfig& c) { c.cutoff = c.num_items + 1; });
  expect_rejected([](ServeConfig& c) { c.min_length = 0; });
  expect_rejected([](ServeConfig& c) { c.max_length = 0; });
}

TEST(ServeConfig, HybridMappingKeepsFaultLayersInert) {
  ServeConfig c;
  c.cutoff = 25;
  c.alpha = 0.75;
  c.seed = 99;
  const core::HybridConfig h = c.hybrid();
  EXPECT_EQ(h.cutoff, 25u);
  EXPECT_EQ(h.alpha, 0.75);
  EXPECT_EQ(h.seed, 99u);
  EXPECT_FALSE(h.fault.enabled);
  EXPECT_FALSE(h.resilience.crash.enabled);
  EXPECT_FALSE(h.resilience.overload.enabled);
}

// ---------------------------------------------------------------------------
// Load driver
// ---------------------------------------------------------------------------

ServeConfig small_config() {
  ServeConfig c;
  c.accelerated = true;
  c.duration = 40.0;
  c.target_qps = 6.0;
  c.seed = 7;
  return c;
}

TEST(LoadDriver, PlanIsAPureFunctionOfItsInputs) {
  const ServeConfig c = small_config();
  const auto cat = c.build_catalog();
  const auto pop = c.build_population();
  LoadDriver a(cat, pop, c.target_qps, c.duration, c.seed);
  LoadDriver b(cat, pop, c.target_qps, c.duration, c.seed);
  ASSERT_EQ(a.plan().size(), b.plan().size());
  ASSERT_GT(a.plan().size(), 0u);
  for (std::size_t i = 0; i < a.plan().size(); ++i) {
    EXPECT_EQ(a.plan()[i].arrival, b.plan()[i].arrival);
    EXPECT_EQ(a.plan()[i].item, b.plan()[i].item);
    EXPECT_EQ(a.plan()[i].cls, b.plan()[i].cls);
  }
}

TEST(LoadDriver, PumpWalksThePlanOnce) {
  const ServeConfig c = small_config();
  const auto cat = c.build_catalog();
  const auto pop = c.build_population();
  LoadDriver driver(cat, pop, c.target_qps, c.duration, c.seed);
  const std::size_t n = driver.plan().size();
  std::size_t taken = 0;
  while (driver.peek() != nullptr) {
    (void)driver.take();
    ++taken;
  }
  EXPECT_EQ(taken, n);
  EXPECT_TRUE(driver.exhausted());
  EXPECT_EQ(driver.remaining(), 0u);
  EXPECT_THROW((void)driver.take(), std::logic_error);
}

// ---------------------------------------------------------------------------
// Accelerated runs: determinism and the DES differential
// ---------------------------------------------------------------------------

struct AcceleratedRun {
  std::string report;
  std::string trace;
};

AcceleratedRun run_accelerated(const ServeConfig& config) {
  const auto cat = config.build_catalog();
  const auto pop = config.build_population();
  LoadDriver driver(cat, pop, config.target_qps, config.duration,
                    config.seed);
  std::ostringstream trace;
  AcceleratedRun out;
  {
    TraceRecorder recorder(trace, config);
    LiveServer server(cat, pop, config);
    out.report = render_serve_report(server.run_accelerated(driver,
                                                            &recorder));
  }
  out.trace = trace.str();
  return out;
}

TEST(LiveServer, AcceleratedRunsAreBitReproducible) {
  const ServeConfig c = small_config();
  const AcceleratedRun a = run_accelerated(c);
  const AcceleratedRun b = run_accelerated(c);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_FALSE(a.report.empty());
  EXPECT_FALSE(a.trace.empty());
}

TEST(LiveServer, DifferentSeedsProduceDifferentRuns) {
  ServeConfig c = small_config();
  const AcceleratedRun a = run_accelerated(c);
  c.seed = c.seed + 1;
  const AcceleratedRun b = run_accelerated(c);
  EXPECT_NE(a.trace, b.trace);
}

TEST(LiveServer, EveryArrivalIsServed) {
  const ServeConfig c = small_config();
  const auto cat = c.build_catalog();
  const auto pop = c.build_population();
  LoadDriver driver(cat, pop, c.target_qps, c.duration, c.seed);
  const std::size_t planned = driver.plan().size();
  LiveServer server(cat, pop, c);
  const ServeReport report = server.run_accelerated(driver, nullptr);
  EXPECT_EQ(report.arrivals, planned);
  EXPECT_EQ(report.served, planned);
  std::uint64_t served = 0;
  for (const auto& cls : report.per_class) served += cls.served;
  EXPECT_EQ(served, planned);
  EXPECT_GT(report.end_time, 0.0);
  EXPECT_EQ(report.achieved_qps,
            static_cast<double>(report.arrivals) / report.end_time);
}

/// The live driver adds nothing to the engine: an accelerated run and a
/// plain core::HybridServer::run over the same plan agree on every count
/// and every wait statistic bit-for-bit.
TEST(LiveServer, AcceleratedRunMatchesDesBitForBit) {
  for (const std::size_t cutoff : {std::size_t{0}, std::size_t{40},
                                   std::size_t{100}}) {
    ServeConfig c = small_config();
    c.cutoff = cutoff;
    const auto cat = c.build_catalog();
    const auto pop = c.build_population();
    LoadDriver driver(cat, pop, c.target_qps, c.duration, c.seed);
    const workload::Trace trace = driver.plan();

    LiveServer server(cat, pop, c);
    const ServeReport live = server.run_accelerated(driver, nullptr);

    core::HybridServer des(cat, pop, c.hybrid());
    const core::SimResult sim = des.run(trace);

    EXPECT_EQ(live.end_time, sim.end_time) << "cutoff " << cutoff;
    EXPECT_EQ(live.push_transmissions, sim.push_transmissions);
    EXPECT_EQ(live.pull_transmissions, sim.pull_transmissions);
    EXPECT_EQ(live.mean_pull_queue_len, sim.mean_pull_queue_len);
    EXPECT_EQ(live.max_pull_queue_len, sim.max_pull_queue_len);
    ASSERT_EQ(live.per_class.size(), sim.per_class.size());
    for (std::size_t i = 0; i < live.per_class.size(); ++i) {
      const auto& a = live.per_class[i];
      const auto& b = sim.per_class[i];
      EXPECT_EQ(a.arrived, b.arrived) << "cutoff " << cutoff << " class " << i;
      EXPECT_EQ(a.served, b.served);
      EXPECT_EQ(a.served_push, b.served_push);
      EXPECT_EQ(a.served_pull, b.served_pull);
      EXPECT_EQ(a.wait.count(), b.wait.count());
      EXPECT_EQ(a.wait.mean(), b.wait.mean());
      EXPECT_EQ(a.wait.variance(), b.wait.variance());
      EXPECT_EQ(a.wait_p95.count(), b.wait_p95.count());
      if (a.wait_p95.count() > 0) {
        EXPECT_EQ(a.wait_p95.value(), b.wait_p95.value());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Record -> replay round trip
// ---------------------------------------------------------------------------

TEST(Replay, RoundTripIsByteIdenticalAndJobsInvariant) {
  const AcceleratedRun recorded = run_accelerated(small_config());
  std::istringstream in1(recorded.trace);
  const RecordedRun run1 = load_trace(in1);
  std::istringstream in2(recorded.trace);
  const RecordedRun run2 = load_trace(in2);

  ReplayOptions serial;
  serial.reps = 3;
  serial.jobs = 1;
  ReplayOptions parallel;
  parallel.reps = 3;
  parallel.jobs = 4;
  ReplayOptions per_hardware_thread;
  per_hardware_thread.reps = 3;
  per_hardware_thread.jobs = 0;

  const std::string a = render_replay_report(run1, replay(run1, serial));
  const std::string b = render_replay_report(run2, replay(run2, serial));
  const std::string c = render_replay_report(run1, replay(run1, parallel));
  const std::string d =
      render_replay_report(run1, replay(run1, per_hardware_thread));
  EXPECT_EQ(a, b);  // replaying the same bytes twice is byte-identical
  EXPECT_EQ(a, c);  // the worker count is invisible in the numbers
  EXPECT_EQ(a, d);
  EXPECT_FALSE(a.empty());
}

TEST(Replay, RepZeroReproducesTheLiveRun) {
  // small_config, and the serve_qps figure's sweep at its default seed:
  // 300 broadcast units at loads 2, 5, 8, 12 and 20.
  std::vector<ServeConfig> configs = {small_config()};
  for (const double qps : {2.0, 5.0, 8.0, 12.0, 20.0}) {
    ServeConfig config;
    config.accelerated = true;
    config.duration = 300.0;
    config.target_qps = qps;
    configs.push_back(config);
  }
  for (const ServeConfig& config : configs) {
    SCOPED_TRACE("target qps " + std::to_string(config.target_qps));
    const auto cat = config.build_catalog();
    const auto pop = config.build_population();
    LoadDriver driver(cat, pop, config.target_qps, config.duration,
                      config.seed);
    std::ostringstream trace;
    ServeReport live;
    {
      TraceRecorder recorder(trace, config);
      LiveServer server(cat, pop, config);
      live = server.run_accelerated(driver, &recorder);
    }
    std::istringstream in(trace.str());
    const RecordedRun run = load_trace(in);
    EXPECT_EQ(run.requests.size(), live.arrivals);

    const auto results = replay(run);
    ASSERT_EQ(results.size(), 1u);
    const core::SimResult& sim = results.front();
    EXPECT_EQ(sim.end_time, live.end_time);
    EXPECT_EQ(sim.push_transmissions, live.push_transmissions);
    EXPECT_EQ(sim.pull_transmissions, live.pull_transmissions);
    EXPECT_EQ(sim.mean_pull_queue_len, live.mean_pull_queue_len);
    EXPECT_EQ(sim.max_pull_queue_len, live.max_pull_queue_len);
    ASSERT_EQ(sim.per_class.size(), live.per_class.size());
    for (std::size_t i = 0; i < live.per_class.size(); ++i) {
      const auto& a = live.per_class[i];
      const auto& b = sim.per_class[i];
      EXPECT_EQ(b.arrived, a.arrived) << "class " << i;
      EXPECT_EQ(b.served, a.served) << "class " << i;
      EXPECT_EQ(b.wait.count(), a.wait.count()) << "class " << i;
      EXPECT_EQ(b.wait.mean(), a.wait.mean()) << "class " << i;
    }
  }
}

TEST(Replay, LaterRepsDecorrelateTheServerSeed) {
  const AcceleratedRun recorded = run_accelerated(small_config());
  std::istringstream in(recorded.trace);
  const RecordedRun run = load_trace(in);
  ReplayOptions options;
  options.reps = 2;
  const auto results = replay(run, options);
  ASSERT_EQ(results.size(), 2u);
  // Identical frozen workload, different server seed: the pull order (and
  // with it the waits) may shift, but the arrival counts cannot.
  std::uint64_t arrived0 = 0;
  std::uint64_t arrived1 = 0;
  for (const auto& s : results[0].per_class) arrived0 += s.arrived;
  for (const auto& s : results[1].per_class) arrived1 += s.arrived;
  EXPECT_EQ(arrived0, arrived1);
}

TEST(Replay, RejectsZeroReps) {
  const AcceleratedRun recorded = run_accelerated(small_config());
  std::istringstream in(recorded.trace);
  const RecordedRun run = load_trace(in);
  ReplayOptions options;
  options.reps = 0;
  EXPECT_THROW((void)replay(run, options), std::invalid_argument);
}

TEST(Replay, RejectsOutOfOrderArrivals) {
  const AcceleratedRun recorded = run_accelerated(small_config());
  std::istringstream in(recorded.trace);
  RecordedRun run = load_trace(in);
  ASSERT_GE(run.requests.size(), 2u);
  // A hand-built recording: load_trace sorts, so swap two arrivals after.
  std::swap(run.requests.front().arrival, run.requests.back().arrival);
  ReplayOptions options;
  options.reps = 3;
  options.jobs = 2;
  // Replay rejects the recording itself, before any rep runs the engine.
  try {
    (void)replay(run, options);
    ADD_FAILURE() << "replay accepted out-of-order arrivals";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("serve::replay:", 0), 0u)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Trace loader hardening
// ---------------------------------------------------------------------------

TEST(TraceLoader, RejectsEmptyInput) {
  std::istringstream in("");
  EXPECT_THROW((void)load_trace(in), std::runtime_error);
}

TEST(TraceLoader, RejectsWrongSchema) {
  std::istringstream in("{\"schema\":\"sv999\",\"seed\":1}\n");
  EXPECT_THROW((void)load_trace(in), std::runtime_error);
}

/// The runtime_error message load_trace throws on `bytes`.
std::string load_error(const std::string& bytes) {
  std::istringstream in(bytes);
  try {
    (void)load_trace(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "load_trace accepted the input";
  return "";
}

TEST(TraceLoader, RejectsLegacySv1Jsonl) {
  const std::string what = load_error(
      "{\"schema\":\"sv1\",\"seed\":1,\"accelerated\":1}\n"
      "{\"requests\":0,\"decisions\":0}\n");
  EXPECT_NE(what.find("sv1 JSONL traces are no longer read"),
            std::string::npos)
      << what;
}

TEST(TraceLoader, RejectsSv1SchemaInAFramedHeader) {
  const std::string what =
      load_error(frame_record("{\"schema\":\"sv1\",\"seed\":1}"));
  EXPECT_NE(what.find("expected schema \"sv2\", got \"sv1\""),
            std::string::npos)
      << what;
}

/// Every payload of a framed journal, in order; fails the test on bad
/// framing.
std::vector<std::string> journal_payloads(const std::string& journal) {
  std::istringstream in(journal);
  JournalReader reader(in);
  std::vector<std::string> payloads;
  while (const auto payload = reader.next()) payloads.emplace_back(*payload);
  EXPECT_FALSE(reader.truncated());
  return payloads;
}

TEST(TraceLoader, RejectsTruncatedRecording) {
  const AcceleratedRun recorded = run_accelerated(small_config());
  // Drop the sealing footer record (the journal is framed — splice at a
  // record boundary so only the *seal* is missing, not the framing).
  const std::vector<std::string> payloads = journal_payloads(recorded.trace);
  ASSERT_GE(payloads.size(), 2u);
  std::string unsealed;
  for (std::size_t i = 0; i + 1 < payloads.size(); ++i) {
    unsealed += frame_record(payloads[i]);
  }
  std::istringstream in(unsealed);
  EXPECT_THROW((void)load_trace(in), std::runtime_error);
}

TEST(TraceLoader, RejectsFooterCountMismatch) {
  const AcceleratedRun recorded = run_accelerated(small_config());
  // Remove one framed request record; the footer now over-counts.
  std::string spliced;
  bool removed = false;
  for (const std::string& payload : journal_payloads(recorded.trace)) {
    if (!removed && payload.rfind("{\"t\":", 0) == 0 &&
        payload.find("\"id\":") != std::string::npos) {
      removed = true;
      continue;
    }
    spliced += frame_record(payload);
  }
  ASSERT_TRUE(removed);
  std::istringstream in(spliced);
  EXPECT_THROW((void)load_trace(in), std::runtime_error);
}

TEST(TraceLoader, RejectsGarbledLines) {
  const AcceleratedRun recorded = run_accelerated(small_config());
  const std::size_t insert_at = recorded.trace.find('\n') + 1;
  std::string garbled = recorded.trace;
  garbled.insert(insert_at, "not json at all\n");
  std::istringstream in(garbled);
  EXPECT_THROW((void)load_trace(in), std::runtime_error);
}

TEST(TraceLoader, RejectsItemsBeyondTheRecordedCatalog) {
  ServeConfig c = small_config();
  std::ostringstream out;
  TraceRecorder recorder(out, c);
  workload::Request r;
  r.arrival = 1.0;
  r.id = 0;
  r.item = static_cast<catalog::ItemId>(c.num_items);  // out of range
  r.cls = 0;
  recorder.record_request(r, 1.0);
  recorder.finish();
  std::istringstream in(out.str());
  EXPECT_THROW((void)load_trace(in), std::runtime_error);
}

TEST(TraceLoader, AcceptsItsOwnRecorderOutput) {
  const AcceleratedRun recorded = run_accelerated(small_config());
  std::istringstream in(recorded.trace);
  const RecordedRun run = load_trace(in);
  EXPECT_GT(run.requests.size(), 0u);
  EXPECT_GT(run.decisions, 0u);
  // Arrivals come back sorted (the Trace contract).
  for (std::size_t i = 1; i < run.requests.size(); ++i) {
    EXPECT_LE(run.requests[i - 1].arrival, run.requests[i].arrival);
  }
}

// ---------------------------------------------------------------------------
// Realtime smoke
// ---------------------------------------------------------------------------

TEST(LiveServer, RealtimeRunDeliversTheWholePlan) {
  // Fast-forwarded hard so the test stays quick: 500 broadcast units per
  // wall second. Timing skew changes the waits, never the delivery count.
  ServeConfig config;
  config.accelerated = false;
  config.duration = 8.0;
  config.target_qps = 3.0;
  config.seed = 11;
  config.time_scale = 500.0;
  config.pacers = 2;
  const auto cat = config.build_catalog();
  const auto pop = config.build_population();
  LoadDriver driver(cat, pop, config.target_qps, config.duration,
                    config.seed);
  const std::size_t planned = driver.plan().size();
  ASSERT_GT(planned, 0u);

  const auto clock = make_wall_clock(config.time_scale);
  CompletionQueue queue(config.queue_capacity);
  LiveServer server(cat, pop, config);
  std::thread producer([&driver, &queue, &clock, &config] {
    driver.run_realtime(queue, *clock, config.pacers);
  });
  const ServeReport report =
      server.run_realtime(queue, *clock, planned, nullptr);
  producer.join();

  EXPECT_EQ(report.arrivals, planned);
  EXPECT_EQ(report.served, planned);
  EXPECT_FALSE(report.accelerated);
  EXPECT_GT(report.end_time, 0.0);
  EXPECT_EQ(queue.posted(), planned);
}

#if defined(PUSHPULL_CLI_PATH)

// The virtual clock paces nothing and the streamed plan rides no
// completion queue, so these flags are not read and fail as unknown.
TEST(LoadtestCli, AcceleratedRejectsWallClockFlags) {
  const std::string out = "loadtest_cli_wall_flags.txt";
  for (const std::string flag : {"time-scale", "pacers", "queue-capacity"}) {
    const std::string cmd = std::string(PUSHPULL_CLI_PATH) +
                            " loadtest --accelerated --duration 5 --" + flag +
                            " 4 > " + out + " 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 1) << cmd;
    std::ifstream in(out);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find("unknown option --" + flag), std::string::npos)
        << cmd << "\n" << text.str();
  }
  std::remove(out.c_str());
}

#endif  // PUSHPULL_CLI_PATH

}  // namespace
}  // namespace pushpull::serve
