// Locks down the deterministic observability layer (src/obs/): the ring
// sink's seq/masking/drop semantics, bit-identity of traced vs untraced
// runs, exact sub-sequence filtering, conservation of the counter set,
// --jobs / --resume invariance of merged replication traces, and the
// committed golden trace fixtures.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/result.hpp"
#include "exp/replication.hpp"
#include "exp/scenario.hpp"
#include "obs/category.hpp"
#include "obs/config.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/run_reporter.hpp"

namespace pushpull {
namespace {

using obs::Category;

// ------------------------------------------------------------- categories

TEST(Category, ParseAndFormatRoundTrip) {
  EXPECT_EQ(obs::parse_categories("all"), obs::kAllCategories);
  const std::uint32_t mask = obs::parse_categories("push,queue,fault");
  EXPECT_EQ(mask, obs::category_bit(Category::kPush) |
                      obs::category_bit(Category::kQueue) |
                      obs::category_bit(Category::kFault));
  // format emits the canonical fixed order regardless of input order.
  EXPECT_EQ(obs::format_categories(obs::parse_categories("fault,push,queue")),
            "push,queue,fault");
  EXPECT_EQ(obs::parse_categories(obs::format_categories(mask)), mask);
}

TEST(Category, FormatEdges) {
  EXPECT_EQ(obs::format_categories(obs::kAllCategories), "all");
  EXPECT_EQ(obs::format_categories(0), "none");
  EXPECT_EQ(obs::format_categories(obs::category_bit(Category::kLadder)),
            "ladder");
}

TEST(Category, ParseRejectsUnknownAndEmpty) {
  EXPECT_THROW((void)obs::parse_categories("push,bogus"),
               std::invalid_argument);
  EXPECT_THROW((void)obs::parse_categories(""), std::invalid_argument);
}

// -------------------------------------------------------------- TraceSink

TEST(TraceSink, RejectsZeroCapacity) {
  EXPECT_THROW(obs::TraceSink(0, obs::kAllCategories), std::logic_error);
}

TEST(TraceSink, DropsOldestAtCapacity) {
  obs::TraceSink sink(4, obs::kAllCategories);
  for (int i = 0; i < 6; ++i) {
    sink.record(static_cast<double>(i), Category::kQueue, "e",
                static_cast<std::uint64_t>(i), 0, 0.0);
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.emitted(), 6u);
  EXPECT_EQ(sink.dropped(), 2u);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The two oldest (seq 0, 1) were evicted; the window is the most recent.
  EXPECT_EQ(events.front().seq, 2u);
  EXPECT_EQ(events.back().seq, 5u);
}

TEST(TraceSink, MaskedCategoriesConsumeSeqWithoutStorage) {
  obs::TraceSink sink(16, obs::category_bit(Category::kPush));
  sink.record(1.0, Category::kPull, "skipped", 0, 0, 0.0);
  sink.record(2.0, Category::kPush, "kept", 0, 0, 0.0);
  sink.record(3.0, Category::kFault, "skipped", 0, 0, 0.0);
  sink.record(4.0, Category::kPush, "kept", 0, 0, 0.0);
  EXPECT_EQ(sink.emitted(), 4u);  // every offer consumed a seq
  EXPECT_EQ(sink.dropped(), 0u);  // mask skips are not ring drops
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Stored events keep the seq they were offered with — the filtered
  // stream is an exact sub-sequence of the unfiltered one.
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].seq, 3u);
}

TEST(TraceSink, SnapshotSortsByTimeThenSeq) {
  obs::TraceSink sink(8, obs::kAllCategories);
  sink.record(5.0, Category::kQueue, "late", 0, 0, 0.0);
  sink.record(1.0, Category::kQueue, "early", 0, 0, 0.0);
  sink.record(1.0, Category::kQueue, "early2", 0, 0, 0.0);
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events[0].time, 1.0);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_DOUBLE_EQ(events[1].time, 1.0);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_DOUBLE_EQ(events[2].time, 5.0);
}

TEST(TraceSink, ClearRestartsSequenceNumbers) {
  obs::TraceSink sink(4, obs::kAllCategories);
  sink.record(1.0, Category::kQueue, "e", 0, 0, 0.0);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.emitted(), 0u);
  sink.record(2.0, Category::kQueue, "e", 0, 0, 0.0);
  EXPECT_EQ(sink.snapshot().front().seq, 0u);
}

TEST(Tracer, DefaultConstructedIsInert) {
  const obs::Tracer tracer;
  // The disabled path is a null check; emitting must be a no-op, not UB.
  tracer.emit<Category::kQueue>(1.0, "nobody_listens", 1, 2, 3.0);
}

// -------------------------------------------------------------- ObsConfig

TEST(ObsConfig, ValidatesCapacityAndMask) {
  obs::ObsConfig ok;
  ok.enabled = true;
  ok.validate();

  obs::ObsConfig zero_cap;
  zero_cap.trace_capacity = 0;
  EXPECT_THROW(zero_cap.validate(), std::logic_error);

  obs::ObsConfig bad_mask;
  bad_mask.categories = 0x400u;  // outside kAllCategories
  EXPECT_THROW(bad_mask.validate(), std::logic_error);
}

// ----------------------------------------------------------------- export

TEST(Export, HeaderNamesSchemaAndMask) {
  const std::string header =
      obs::render_header(obs::kAllCategories, 65536);
  EXPECT_NE(header.find("\"schema\":\"obs1\""), std::string::npos);
  EXPECT_NE(header.find("\"categories\":\"all\""), std::string::npos);
  EXPECT_NE(header.find("\"cap\":65536"), std::string::npos);
  EXPECT_EQ(header.back(), '\n');
}

TEST(Export, SingleRunChunkOmitsRepKey) {
  obs::ObsReport report;
  report.enabled = true;
  report.categories = obs::kAllCategories;
  report.events.push_back(
      obs::TraceEvent{1.5, 0, Category::kPush, "tx_start", 7, 2, 0.25});
  const std::string chunk = obs::render_chunk(report, obs::kNoRep);
  EXPECT_EQ(chunk.find("\"rep\""), std::string::npos);
  EXPECT_NE(chunk.find("\"ev\":\"tx_start\""), std::string::npos);
  EXPECT_NE(chunk.find("\"cat\":\"push\""), std::string::npos);
}

TEST(Export, ReplicationChunkTagsEveryLine) {
  obs::ObsReport report;
  report.enabled = true;
  report.events.push_back(
      obs::TraceEvent{0.0, 0, Category::kQueue, "enter", 1, 0, 1.0});
  std::istringstream lines(obs::render_chunk(report, 3));
  std::size_t total = 0;
  for (std::string line; std::getline(lines, line); ++total) {
    EXPECT_NE(line.find("\"rep\":3"), std::string::npos) << line;
  }
  EXPECT_GT(total, 1u);  // events + counters + footer at minimum
}

// --------------------------------------------------------------- profiler

TEST(Profiler, AccumulatesScopesDeterministically) {
  obs::Profiler profiler;
  profiler.add_sample("b", 2.0);
  profiler.add_sample("a", 1.0);
  profiler.add_sample("b", 3.0);
  const auto rows = profiler.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "a");  // std::map order, not insertion order
  EXPECT_EQ(rows[0].second.calls, 1u);
  EXPECT_EQ(rows[1].first, "b");
  EXPECT_EQ(rows[1].second.calls, 2u);
  EXPECT_DOUBLE_EQ(rows[1].second.total_ms, 5.0);
}

TEST(Profiler, ScopesMeasureAndNullProfilerIsInert) {
  obs::Profiler profiler;
  {
    const obs::ProfileScope scope(&profiler, "work");
  }
  {
    const obs::ProfileScope inert(nullptr, "ignored");
  }
  const auto rows = profiler.rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].first, "work");
  EXPECT_EQ(rows[0].second.calls, 1u);
  EXPECT_GE(rows[0].second.total_ms, 0.0);
}

// ----------------------------------- differential: traced == untraced ----

exp::Scenario small_scenario() {
  exp::Scenario s;
  s.num_items = 50;
  s.num_requests = 4000;
  s.seed = 11;
  return s;
}

core::HybridConfig base_config() {
  core::HybridConfig c;
  c.cutoff = 15;
  c.alpha = 0.5;
  return c;
}

core::HybridConfig faulty_config() {
  core::HybridConfig c = base_config();
  c.fault.enabled = true;
  c.fault.channel.p_good_to_bad = 0.10;
  c.fault.channel.p_bad_to_good = 0.30;
  c.fault.channel.corrupt_bad = 0.5;
  c.fault.queue_capacity = 48;
  c.mean_patience = 120.0;
  return c;
}

core::HybridConfig chaos_config() {
  core::HybridConfig c = faulty_config();
  c.resilience.crash.enabled = true;
  c.resilience.crash.rate = 0.002;
  c.resilience.overload.enabled = true;
  return c;
}

core::HybridConfig traced(core::HybridConfig c,
                          std::uint32_t categories = obs::kAllCategories) {
  c.obs.enabled = true;
  c.obs.categories = categories;
  return c;
}

void expect_same_result(const core::SimResult& a, const core::SimResult& b) {
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    const auto& x = a.per_class[c];
    const auto& y = b.per_class[c];
    EXPECT_EQ(x.arrived, y.arrived) << "class " << c;
    EXPECT_EQ(x.served, y.served) << "class " << c;
    EXPECT_EQ(x.blocked, y.blocked) << "class " << c;
    EXPECT_EQ(x.abandoned, y.abandoned) << "class " << c;
    EXPECT_EQ(x.corrupted, y.corrupted) << "class " << c;
    EXPECT_EQ(x.retries, y.retries) << "class " << c;
    EXPECT_EQ(x.shed, y.shed) << "class " << c;
    EXPECT_EQ(x.lost, y.lost) << "class " << c;
    EXPECT_EQ(x.rejected, y.rejected) << "class " << c;
    EXPECT_EQ(x.stormed, y.stormed) << "class " << c;
    EXPECT_EQ(x.wait.count(), y.wait.count()) << "class " << c;
    EXPECT_EQ(x.wait.mean(), y.wait.mean()) << "class " << c;
    EXPECT_EQ(x.wait.variance(), y.wait.variance()) << "class " << c;
    EXPECT_EQ(x.wait.max(), y.wait.max()) << "class " << c;
  }
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.push_transmissions, b.push_transmissions);
  EXPECT_EQ(a.pull_transmissions, b.pull_transmissions);
  EXPECT_EQ(a.blocked_transmissions, b.blocked_transmissions);
  EXPECT_EQ(a.corrupted_push_transmissions, b.corrupted_push_transmissions);
  EXPECT_EQ(a.corrupted_pull_transmissions, b.corrupted_pull_transmissions);
  EXPECT_EQ(a.mean_pull_queue_len, b.mean_pull_queue_len);
  EXPECT_EQ(a.max_pull_queue_len, b.max_pull_queue_len);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.total_downtime, b.total_downtime);
  EXPECT_EQ(a.storm_rerequests, b.storm_rerequests);
  EXPECT_EQ(a.overload_transitions.size(), b.overload_transitions.size());
}

TEST(Differential, DefaultScenarioBitIdentical) {
  const auto built = small_scenario().build();
  const auto plain = exp::run_hybrid(built, base_config());
  const auto observed = exp::run_hybrid_observed(built, traced(base_config()));
  expect_same_result(plain, observed.result);
  EXPECT_TRUE(observed.obs.enabled);
  EXPECT_GT(observed.obs.events.size(), 0u);
}

TEST(Differential, FaultyChannelBitIdentical) {
  // The traced channel overload must consume the identical RNG draws.
  const auto built = small_scenario().build();
  const auto plain = exp::run_hybrid(built, faulty_config());
  const auto observed =
      exp::run_hybrid_observed(built, traced(faulty_config()));
  expect_same_result(plain, observed.result);
  EXPECT_GT(observed.obs.counters.fault_flips, 0u);
}

TEST(Differential, ChaosScenarioBitIdentical) {
  const auto built = small_scenario().build();
  const auto plain = exp::run_hybrid(built, chaos_config());
  const auto observed = exp::run_hybrid_observed(built, traced(chaos_config()));
  expect_same_result(plain, observed.result);
}

TEST(Differential, CategoryFilteringBitIdentical) {
  // Restricting the runtime mask only changes what the sink stores, never
  // what the simulation computes.
  const auto built = small_scenario().build();
  const auto plain = exp::run_hybrid(built, faulty_config());
  const auto observed = exp::run_hybrid_observed(
      built, traced(faulty_config(), obs::category_bit(Category::kFault)));
  expect_same_result(plain, observed.result);
  for (const auto& e : observed.obs.events) {
    EXPECT_EQ(e.category, Category::kFault);
  }
}

TEST(Differential, ObserverOffProducesEmptyReport) {
  const auto built = small_scenario().build();
  const auto observed = exp::run_hybrid_observed(built, base_config());
  EXPECT_FALSE(observed.obs.enabled);
  EXPECT_TRUE(observed.obs.events.empty());
  EXPECT_EQ(observed.obs.counters.server_arrivals, 0u);
}

// ------------------------------------------- report and conservation -----

void expect_conserved(const obs::CounterSet& c) {
  // Every arrival settles exactly once: delivered, blocked at the
  // bandwidth gate, abandoned, shed by the bounded queue, lost after
  // exhausting retries, or refused by ladder admission control.
  EXPECT_EQ(c.server_arrivals,
            c.server_served_push + c.server_served_pull + c.blocked_requests +
                c.server_abandoned + c.fault_shed + c.fault_lost +
                c.server_rejected);
  // The pull queue drains by the end of the run.
  EXPECT_EQ(c.queue_enter, c.queue_leave);
  EXPECT_GE(c.queue_peak, 1u);
  // Kernel bookkeeping: everything dispatched was scheduled first.
  EXPECT_LE(c.des_dispatched + c.des_cancelled, c.des_scheduled);
  EXPECT_GT(c.des_dispatched, 0u);
}

TEST(Observer, ReportCarriesCountersHistogramsAndEvents) {
  const auto built = small_scenario().build();
  const auto observed =
      exp::run_hybrid_observed(built, traced(faulty_config()));
  const obs::ObsReport& r = observed.obs;
  EXPECT_TRUE(r.enabled);
  EXPECT_EQ(r.categories, obs::kAllCategories);
  EXPECT_GT(r.emitted, 0u);
  expect_conserved(r.counters);

  // One pull-queue-length histogram plus one response histogram per class.
  ASSERT_EQ(r.histograms.size(), 1 + built.population.num_classes());
  EXPECT_EQ(r.histograms[0].name, "pull_queue_len");
  EXPECT_GT(r.histograms[0].count, 0u);
  for (std::size_t c = 0; c < built.population.num_classes(); ++c) {
    const auto& h = r.histograms[1 + c];
    EXPECT_EQ(h.name, "response.class" + std::to_string(c));
    EXPECT_GT(h.count, 0u);
    EXPECT_GE(h.p99, h.p50);
    EXPECT_GE(h.max, h.mean);
    EXPECT_GE(h.mean, h.min);
  }
  // Served counters agree with the response histogram populations.
  std::uint64_t responses = 0;
  for (std::size_t c = 0; c < built.population.num_classes(); ++c) {
    responses += r.histograms[1 + c].count;
  }
  EXPECT_EQ(responses,
            r.counters.server_served_push + r.counters.server_served_pull);
}

// --------------------------------------------- filtered sub-sequence -----

bool same_event(const obs::TraceEvent& a, const obs::TraceEvent& b) {
  return a.time == b.time && a.seq == b.seq && a.category == b.category &&
         std::string_view(a.name) == std::string_view(b.name) && a.a == b.a &&
         a.b == b.b && a.v == b.v;
}

TEST(Filtering, FilteredStreamIsExactSubsequence) {
  const auto built = small_scenario().build();
  const std::uint32_t mask = obs::category_bit(Category::kQueue) |
                             obs::category_bit(Category::kFault);
  // A capacity no run here can overflow: eviction would break the
  // sub-sequence relation by dropping different windows.
  auto big = [](core::HybridConfig c) {
    c.obs.trace_capacity = 1u << 20;
    return c;
  };
  const auto unfiltered =
      exp::run_hybrid_observed(built, big(traced(faulty_config())));
  const auto filtered =
      exp::run_hybrid_observed(built, big(traced(faulty_config(), mask)));
  ASSERT_EQ(unfiltered.obs.dropped, 0u);
  ASSERT_EQ(filtered.obs.dropped, 0u);
  // Same offers on both runs...
  EXPECT_EQ(unfiltered.obs.emitted, filtered.obs.emitted);

  // ...and the filtered stream is byte-for-byte the masked projection of
  // the unfiltered one, seq values included.
  std::vector<obs::TraceEvent> expected;
  for (const auto& e : unfiltered.obs.events) {
    if ((obs::category_bit(e.category) & mask) != 0) expected.push_back(e);
  }
  ASSERT_EQ(filtered.obs.events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(same_event(filtered.obs.events[i], expected[i]))
        << "event " << i;
  }
  EXPECT_GT(expected.size(), 0u);
  EXPECT_LT(expected.size(), unfiltered.obs.events.size());
}

// ------------------------------------------------------ property test ----

TEST(ObsProperty, FiveHundredSeededCases) {
  // 500 seeded tiny scenarios across the fault/patience/queue-cap/ladder
  // option grid. Pinned properties: event times non-decreasing with seq
  // strictly increasing, every stored event inside the runtime mask, and
  // the conservation identities of the counter set.
  constexpr std::size_t kCases = 500;
  for (std::size_t i = 0; i < kCases; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    exp::Scenario s;
    s.num_items = 20 + (i % 7) * 5;
    s.num_requests = 150 + (i % 5) * 40;
    s.seed = 1000 + i;
    const auto built = s.build();

    core::HybridConfig c;
    c.cutoff = (i % 3) * 7;
    c.alpha = 0.25 * static_cast<double>(i % 4);
    c.seed = 77 + i;
    if (i % 2 == 1) {
      c.fault.enabled = true;
      c.fault.channel.p_good_to_bad = 0.08;
      c.fault.channel.p_bad_to_good = 0.30;
      c.fault.channel.corrupt_bad = 0.4;
    }
    if (i % 3 == 1) c.mean_patience = 60.0;
    if (i % 4 == 2) c.fault.queue_capacity = 24;
    if (i % 5 == 3) c.resilience.overload.enabled = true;
    c.obs.enabled = true;
    c.obs.trace_capacity = 1u << 18;
    if (i % 6 == 5) {
      c.obs.categories = obs::category_bit(Category::kQueue) |
                         obs::category_bit(Category::kPull);
    }

    const auto observed = exp::run_hybrid_observed(built, c);
    const obs::ObsReport& r = observed.obs;
    ASSERT_EQ(r.dropped, 0u);
    for (std::size_t k = 0; k < r.events.size(); ++k) {
      const auto& e = r.events[k];
      ASSERT_NE(obs::category_bit(e.category) & r.categories, 0u);
      if (k > 0) {
        ASSERT_GE(e.time, r.events[k - 1].time);
        ASSERT_GT(e.seq, r.events[k - 1].seq);
      }
    }
    expect_conserved(r.counters);
  }
}

// --------------------------------------------------- --jobs invariance ---

exp::Scenario rep_scenario() {
  exp::Scenario s;
  s.num_items = 40;
  s.num_requests = 1500;
  return s;
}

std::string merged_trace(std::size_t jobs, std::size_t reps,
                         runtime::RunReporter* reporter = nullptr,
                         const runtime::CheckpointStore* resume = nullptr) {
  core::HybridConfig config = base_config();
  exp::Scenario scenario = rep_scenario();
  scenario.jobs = jobs;
  std::ostringstream trace;
  exp::ReplicateOptions options;
  options.obs.enabled = true;
  options.trace_out = &trace;
  options.reporter = reporter;
  options.resume = resume;
  (void)exp::replicate_hybrid(scenario, config, reps, options);
  return trace.str();
}

TEST(ReplicationTrace, MergedStreamIdenticalAcrossJobs) {
  const std::string serial = merged_trace(1, 6);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, merged_trace(2, 6));
  EXPECT_EQ(serial, merged_trace(8, 6));
  // Header first, every subsequent line rep-tagged in index order.
  std::istringstream lines(serial);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_NE(header.find("\"schema\":\"obs1\""), std::string::npos);
  std::uint64_t last_rep = 0;
  for (std::string line; std::getline(lines, line);) {
    const auto pos = line.find("\"rep\":");
    ASSERT_NE(pos, std::string::npos) << line;
    const std::uint64_t rep = std::stoull(line.substr(pos + 6));
    EXPECT_GE(rep, last_rep);
    last_rep = rep;
  }
  EXPECT_EQ(last_rep, 5u);
}

TEST(ReplicationTrace, SurvivesKillAndResume) {
  const std::size_t reps = 6;
  std::ostringstream log;
  std::string expected;
  {
    runtime::RunReporter reporter(log);
    expected = merged_trace(2, reps, &reporter);
  }
  // Truncate the JSONL as a kill -9 would, resume from the remains.
  const std::string full = log.str();
  std::istringstream in(full.substr(0, (2 * full.size()) / 3));
  const auto checkpoint = runtime::CheckpointStore::load(in);
  EXPECT_LT(checkpoint.size(), reps);
  const std::string resumed = merged_trace(3, reps, nullptr, &checkpoint);
  EXPECT_EQ(expected, resumed);
}

TEST(ReplicationTrace, TracelessCheckpointRecomputesTrace) {
  // A checkpoint from a run WITHOUT tracing carries no trace chunks; a
  // traced resume must recompute those replications (deterministically)
  // instead of splicing silent gaps into the stream.
  const std::size_t reps = 4;
  std::ostringstream log;
  {
    runtime::RunReporter reporter(log);
    exp::ReplicateOptions options;
    options.reporter = &reporter;
    (void)exp::replicate_hybrid(rep_scenario(), base_config(), reps, options);
  }
  std::istringstream in(log.str());
  const auto checkpoint = runtime::CheckpointStore::load(in);
  ASSERT_EQ(checkpoint.size(), reps);

  const std::string fresh = merged_trace(1, reps);
  const std::string resumed = merged_trace(1, reps, nullptr, &checkpoint);
  EXPECT_EQ(fresh, resumed);
}

TEST(ReplicationTrace, SummaryUnchangedByTracing) {
  const auto scenario = rep_scenario();
  const auto plain =
      exp::replicate_hybrid(scenario, base_config(), 4);
  exp::ReplicateOptions options;
  options.obs.enabled = true;
  std::ostringstream trace;
  options.trace_out = &trace;
  const auto traced_summary =
      exp::replicate_hybrid(scenario, base_config(), 4, options);
  EXPECT_EQ(plain.overall_delay.mean(), traced_summary.overall_delay.mean());
  EXPECT_EQ(plain.total_cost.mean(), traced_summary.total_cost.mean());
  EXPECT_EQ(plain.blocking.mean(), traced_summary.blocking.mean());
}

// -------------------------------------------------- golden fixtures ------

#if defined(PUSHPULL_CLI_PATH) && defined(PUSHPULL_GOLDEN_DIR)

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs the real CLI binary writing a trace to a temp file and
/// byte-compares it against the committed fixture.
void expect_golden_trace(const std::string& args,
                         const std::string& golden_name) {
  // One file per golden: ctest -j runs the cases as concurrent processes.
  const std::string tmp = "obs_golden_" + golden_name;
  const std::string cmd = std::string(PUSHPULL_CLI_PATH) + " " + args +
                          " --trace " + tmp + " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const std::string golden =
      slurp(std::string(PUSHPULL_GOLDEN_DIR) + "/trace/" + golden_name);
  ASSERT_FALSE(golden.empty()) << "missing fixture " << golden_name;
  EXPECT_EQ(slurp(tmp), golden)
      << "trace drifted from golden " << golden_name;
  (void)std::remove(tmp.c_str());
}

TEST(GoldenTrace, DefaultScenario) {
  expect_golden_trace(
      "trace --items 12 --requests 60 --rate 2 --seed 3 --cutoff 5",
      "trace_default.jsonl");
}

TEST(GoldenTrace, FaultyChannel) {
  expect_golden_trace(
      "trace --items 12 --requests 60 --rate 2 --seed 5 --cutoff 5 --fault "
      "--fault-corrupt-bad 0.4",
      "trace_fault.jsonl");
}

#endif  // PUSHPULL_CLI_PATH && PUSHPULL_GOLDEN_DIR

}  // namespace
}  // namespace pushpull
