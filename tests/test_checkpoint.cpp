// Crash-safe checkpoint/resume: hexfloat round-trip, tolerant JSONL
// parsing (truncated final lines), Welford state restoration,
// kill-and-resume producing bit-identical replication summaries, and
// seeded mutations of real rp1 payloads that must restore or fail cleanly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "counting_new.hpp"
#include "exp/replication.hpp"
#include "metrics/welford.hpp"
#include "rng/splitmix64.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/run_reporter.hpp"

namespace pushpull {
namespace {

// --- double encoding ------------------------------------------------------

TEST(EncodeDouble, RoundTripsExactly) {
  for (const double v : {0.0, 1.0, -1.0, 1.0 / 3.0, 76.82771234567891,
                         1e-300, -1e300, 0.1, std::nextafter(2.0, 3.0)}) {
    EXPECT_EQ(runtime::decode_double(runtime::encode_double(v)), v)
        << "value " << v;
  }
}

TEST(EncodeDouble, AcceptsPlainDecimal) {
  EXPECT_DOUBLE_EQ(runtime::decode_double("2.5"), 2.5);
}

TEST(EncodeDouble, RejectsMalformedTokens) {
  EXPECT_THROW((void)runtime::decode_double(""), std::invalid_argument);
  EXPECT_THROW((void)runtime::decode_double("abc"), std::invalid_argument);
  EXPECT_THROW((void)runtime::decode_double("1.5junk"),
               std::invalid_argument);
}

// --- Welford restore ------------------------------------------------------

TEST(WelfordRestore, RoundTripsInternalStateBitExactly) {
  metrics::Welford w;
  for (const double x : {3.1, -2.7, 0.4, 19.0, 5.5}) w.add(x);
  const metrics::Welford r = metrics::Welford::restore(
      w.count(), w.mean(), w.m2(), w.sum(), w.min(), w.max());
  EXPECT_EQ(r.count(), w.count());
  EXPECT_EQ(r.mean(), w.mean());
  EXPECT_EQ(r.m2(), w.m2());
  EXPECT_EQ(r.sum(), w.sum());
  EXPECT_EQ(r.min(), w.min());
  EXPECT_EQ(r.max(), w.max());
  // Merging restored state must behave exactly like merging the original.
  metrics::Welford a, b;
  a.add(1.0);
  b.add(1.0);
  a.merge(w);
  b.merge(r);
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
}

TEST(WelfordRestore, ZeroCountYieldsFreshAccumulator) {
  const metrics::Welford w = metrics::Welford::restore(0, 9.9, 9.9, 9.9,
                                                       9.9, 9.9);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.mean(), 0.0);
  metrics::Welford other;
  other.add(2.0);
  metrics::Welford merged = w;
  merged.merge(other);
  EXPECT_EQ(merged.count(), 1u);
}

// --- JSONL parsing --------------------------------------------------------

TEST(CheckpointStore, LoadsPayloadRecords) {
  std::istringstream in(
      "{\"event\":\"run_start\",\"label\":\"replicate\",\"jobs\":3,"
      "\"workers\":1}\n"
      "{\"event\":\"payload\",\"id\":0,\"payload\":\"alpha\"}\n"
      "{\"event\":\"job\",\"id\":0,\"wall_ms\":1.000,\"outcome\":\"ok\"}\n"
      "{\"event\":\"payload\",\"id\":2,\"payload\":\"gamma\"}\n");
  const auto store = runtime::CheckpointStore::load(in);
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.find(0), nullptr);
  EXPECT_EQ(*store.find(0), "alpha");
  EXPECT_EQ(store.find(1), nullptr);
  ASSERT_NE(store.find(2), nullptr);
  EXPECT_EQ(*store.find(2), "gamma");
}

TEST(CheckpointStore, SkipsTruncatedFinalLine) {
  // A crash mid-append leaves the last record without its closing brace
  // (or even mid-payload); the reader must drop it, not trust it.
  std::istringstream in(
      "{\"event\":\"payload\",\"id\":0,\"payload\":\"alpha\"}\n"
      "{\"event\":\"payload\",\"id\":1,\"payload\":\"bet");
  const auto store = runtime::CheckpointStore::load(in);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.find(1), nullptr);
}

TEST(CheckpointStore, SkipsGarbageAndNonPayloadLines) {
  std::istringstream in(
      "not json at all\n"
      "{\"event\":\"job\",\"id\":7,\"wall_ms\":1.000,\"outcome\":\"ok\"}\n"
      "{\"event\":\"payload\",\"id\":5}\n"
      "\n"
      "{\"event\":\"payload\",\"id\":4,\"payload\":\"ok\"}\n");
  const auto store = runtime::CheckpointStore::load(in);
  EXPECT_EQ(store.size(), 1u);
  ASSERT_NE(store.find(4), nullptr);
  EXPECT_EQ(*store.find(4), "ok");
}

TEST(CheckpointStore, LastPayloadWinsOnRepeatedId) {
  // A resumed run appends to the same file, so a job that re-ran after an
  // unparseable checkpoint has two records; the newest is the valid one.
  std::istringstream in(
      "{\"event\":\"payload\",\"id\":3,\"payload\":\"old\"}\n"
      "{\"event\":\"payload\",\"id\":3,\"payload\":\"new\"}\n");
  const auto store = runtime::CheckpointStore::load(in);
  ASSERT_NE(store.find(3), nullptr);
  EXPECT_EQ(*store.find(3), "new");
}

TEST(CheckpointStore, MissingFileYieldsEmptyStore) {
  const auto store =
      runtime::CheckpointStore::load_file("/nonexistent/progress.jsonl");
  EXPECT_TRUE(store.empty());
}

TEST(CheckpointStore, RoundTripsThroughRunReporter) {
  std::ostringstream out;
  runtime::RunReporter reporter(out);
  reporter.run_started("replicate", 2, 1);
  reporter.job_payload(0, "rp1 3 " + runtime::encode_double(1.0 / 3.0));
  reporter.job_finished(0, 1.0, true);
  reporter.job_payload(1, "with \"quotes\" and \\slashes\\");
  std::istringstream in(out.str());
  const auto store = runtime::CheckpointStore::load(in);
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(*store.find(0), "rp1 3 " + runtime::encode_double(1.0 / 3.0));
  EXPECT_EQ(*store.find(1), "with \"quotes\" and \\slashes\\");
}

// --- kill-and-resume ------------------------------------------------------

exp::Scenario tiny_scenario() {
  exp::Scenario s;
  s.num_items = 40;
  s.num_requests = 2000;
  return s;
}

void expect_same_summary(const exp::ReplicationSummary& a,
                         const exp::ReplicationSummary& b) {
  EXPECT_EQ(a.overall_delay.mean(), b.overall_delay.mean());
  EXPECT_EQ(a.overall_delay.variance(), b.overall_delay.variance());
  EXPECT_EQ(a.total_cost.mean(), b.total_cost.mean());
  EXPECT_EQ(a.blocking.mean(), b.blocking.mean());
  EXPECT_EQ(a.pull_queue_len.mean(), b.pull_queue_len.mean());
  ASSERT_EQ(a.class_delay.size(), b.class_delay.size());
  for (std::size_t c = 0; c < a.class_delay.size(); ++c) {
    EXPECT_EQ(a.class_delay[c].mean(), b.class_delay[c].mean());
    EXPECT_EQ(a.class_delay[c].variance(), b.class_delay[c].variance());
  }
}

/// Runs replicate_hybrid with a reporter, "kills" the run by keeping only
/// the first `keep_chars` characters of the JSONL (as a crash would), then
/// resumes with `resume_jobs` workers and checks bit-identity.
void kill_and_resume(std::size_t jobs, std::size_t resume_jobs) {
  auto scenario = tiny_scenario();
  scenario.jobs = jobs;
  core::HybridConfig config;
  config.cutoff = 15;
  const std::size_t reps = 6;

  const auto expected = exp::replicate_hybrid(scenario, config, reps);

  // Full instrumented run to obtain a realistic JSONL...
  std::ostringstream log;
  {
    runtime::RunReporter reporter(log);
    exp::ReplicateOptions opts;
    opts.reporter = &reporter;
    const auto logged =
        exp::replicate_hybrid(scenario, config, reps, opts);
    expect_same_summary(expected, logged);
  }

  // ...then truncate it mid-record, as a kill -9 would.
  const std::string full = log.str();
  const std::string truncated = full.substr(0, (2 * full.size()) / 3);
  std::istringstream in(truncated);
  const auto checkpoint = runtime::CheckpointStore::load(in);
  EXPECT_LT(checkpoint.size(), reps);  // some work genuinely remains

  std::ostringstream resumed_log;
  runtime::RunReporter reporter(resumed_log);
  scenario.jobs = resume_jobs;
  exp::ReplicateOptions resume_opts;
  resume_opts.reporter = &reporter;
  resume_opts.resume = &checkpoint;
  const auto resumed =
      exp::replicate_hybrid(scenario, config, reps, resume_opts);
  expect_same_summary(expected, resumed);
}

TEST(Resume, KilledSerialRunResumesBitIdentically) {
  kill_and_resume(/*jobs=*/1, /*resume_jobs=*/1);
}

TEST(Resume, KilledParallelRunResumesBitIdentically) {
  kill_and_resume(/*jobs=*/3, /*resume_jobs=*/3);
}

TEST(Resume, WorkerCountMayChangeAcrossResume) {
  kill_and_resume(/*jobs=*/1, /*resume_jobs=*/4);
}

TEST(Resume, FullCheckpointRecomputesNothing) {
  const auto scenario = tiny_scenario();
  core::HybridConfig config;
  config.cutoff = 15;
  const std::size_t reps = 4;

  std::ostringstream log;
  exp::ReplicationSummary expected;
  {
    runtime::RunReporter reporter(log);
    exp::ReplicateOptions opts;
    opts.reporter = &reporter;
    expected = exp::replicate_hybrid(scenario, config, reps, opts);
  }
  std::istringstream in(log.str());
  const auto checkpoint = runtime::CheckpointStore::load(in);
  ASSERT_EQ(checkpoint.size(), reps);

  // No reporter this time: if a replication re-ran it could not be
  // checkpointed, and the summaries must still match from payloads alone.
  exp::ReplicateOptions resume_opts;
  resume_opts.resume = &checkpoint;
  const auto resumed =
      exp::replicate_hybrid(scenario, config, reps, resume_opts);
  expect_same_summary(expected, resumed);
}

TEST(Resume, CorruptPayloadFailsLoudly) {
  const auto scenario = tiny_scenario();
  core::HybridConfig config;
  config.cutoff = 15;
  std::istringstream in(
      "{\"event\":\"payload\",\"id\":0,\"payload\":\"zz9 not-a-partial\"}\n");
  const auto checkpoint = runtime::CheckpointStore::load(in);
  exp::ReplicateOptions opts;
  opts.resume = &checkpoint;
  EXPECT_THROW((void)exp::replicate_hybrid(scenario, config, 2, opts),
               std::runtime_error);
}

/// Wraps `payload` in a one-record progress file, as RunReporter writes it,
/// and loads it back.
runtime::CheckpointStore one_payload_store(const std::string& payload) {
  std::ostringstream log;
  runtime::RunReporter reporter(log);
  reporter.job_payload(0, payload);
  std::istringstream in(log.str());
  return runtime::CheckpointStore::load(in);
}

constexpr std::size_t kMiB = std::size_t{1} << 20;

TEST(Resume, CorruptClassCountOrDoubleFailsBeforeAllocating) {
  const auto scenario = tiny_scenario();
  core::HybridConfig config;
  config.cutoff = 15;
  // The first Welford after each count is valid, so a parser that sized
  // its per-class pools by the count before checking it would allocate
  // (or throw std::bad_alloc / std::length_error) first. A two-class
  // payload is well formed, but not for this three-class scenario.
  const std::string welford = " 1 0x1p+0 0x0p+0 0x1p+0 0x1p+0 0x1p+0";
  std::string two_classes = "rp1 2";
  for (int i = 0; i < 6; ++i) two_classes += welford;
  const struct {
    std::string payload;
    std::string says;
  } cases[] = {
      {"rp1 5000000" + welford, "'5000000' classes but the scenario has 3"},
      {"rp1 400000000000" + welford, "'400000000000' classes"},
      {"rp1 18446744073709551615" + welford, "'18446744073709551615'"},
      {two_classes, "'2' classes but the scenario has 3"},
      {"rp1 3 1 0x1pZ 0x0p+0 0x1p+0 0x1p+0 0x1p+0", "'0x1pZ'"},
  };
  for (const auto& c : cases) {
    const auto checkpoint = one_payload_store(c.payload);
    ASSERT_NE(checkpoint.find(0), nullptr) << c.payload;
    exp::ReplicateOptions opts;
    opts.resume = &checkpoint;
    std::string what;
    std::size_t largest = 0;
    {
      const alloc_count::AllocationCount count;
      try {
        (void)exp::replicate_hybrid(scenario, config, 2, opts);
      } catch (const std::runtime_error& e) {
        what = e.what();
      } catch (const std::exception& e) {
        ADD_FAILURE() << c.payload << ": threw a non-runtime_error: "
                      << e.what();
      }
      largest = count.largest();
    }
    EXPECT_NE(what.find(c.says), std::string::npos)
        << c.payload << " -> '" << what << "'";
    EXPECT_LT(largest, kMiB) << c.payload;
  }
}

// --- seeded mutations of real rp1 payloads --------------------------------

/// Payload 0 of a real one-replication run, traced or not, as RunReporter
/// wrote it and CheckpointStore read it back.
std::string real_payload(bool traced) {
  std::ostringstream log;
  {
    runtime::RunReporter reporter(log);
    exp::ReplicateOptions opts;
    opts.reporter = &reporter;
    opts.obs.enabled = traced;
    opts.obs.trace_capacity = 256;  // keeps the tr1 chunk small
    std::ostringstream trace;
    opts.trace_out = &trace;
    core::HybridConfig config;
    config.cutoff = 15;
    (void)exp::replicate_hybrid(tiny_scenario(), config, 1, opts);
  }
  std::istringstream in(log.str());
  const auto store = runtime::CheckpointStore::load(in);
  const std::string* payload = store.find(0);
  return payload != nullptr ? *payload : std::string();
}

/// One seeded mutation: a byte flip, a run of digits, a cut or a duplicated
/// token. Most land in the stats section (before the trace marker, if any),
/// since the rp1 decoder only copies the trace chunk.
std::string mutate_payload(const std::string& payload, rng::SplitMix64& rng) {
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::size_t stats_end =
      std::min(payload.find(" tr1\n"), payload.size());
  const auto pick = [&] {
    return below(4) != 0 ? below(stats_end) : below(payload.size());
  };
  std::string out = payload;
  switch (below(4)) {
    case 0: {  // flip one byte to any other value
      const std::size_t at = pick();
      out[at] = static_cast<char>(static_cast<unsigned char>(out[at]) ^
                                  (1 + below(255)));
      break;
    }
    case 1: {  // a run of digits over 0-2 bytes, often the class count
      std::string run(1 + below(24), '0');
      for (char& c : run) c = static_cast<char>('0' + below(10));
      if (below(3) == 0) {
        out.replace(4, out.find(' ', 4) - 4, run);  // "rp1 <classes> ..."
      } else {
        const std::size_t at = pick();
        out.replace(at, std::min(below(3), out.size() - at), run);
      }
      break;
    }
    case 2: {  // cut anywhere
      out.resize(below(4) != 0 ? below(stats_end + 1)
                               : below(payload.size() + 1));
      break;
    }
    default: {  // duplicate one whitespace-separated token in place
      std::vector<std::size_t> starts;
      for (std::size_t i = 0; i < stats_end; ++i) {
        if (payload[i] != ' ' && (i == 0 || payload[i - 1] == ' ')) {
          starts.push_back(i);
        }
      }
      const std::size_t begin = starts[below(starts.size())];
      const std::size_t end =
          std::min(payload.find(' ', begin), payload.size());
      out.insert(end, " " + payload.substr(begin, end - begin));
      break;
    }
  }
  return out;
}

TEST(Resume, MutatedPayloadsRestoreOrFailCleanly) {
  constexpr std::size_t kMutationsPerPayload = 1000;
  const auto scenario = tiny_scenario();
  core::HybridConfig config;
  config.cutoff = 15;
  std::size_t restored = 0;
  std::size_t rejected = 0;
  for (const bool traced : {false, true}) {
    const std::string payload = real_payload(traced);
    ASSERT_EQ(payload.rfind("rp1 3 ", 0), 0u) << payload;
    ASSERT_EQ(payload.find(" tr1\n") != std::string::npos, traced);
    ASSERT_LT(payload.size(), kMiB / 4);
    for (std::size_t i = 0; i < kMutationsPerPayload; ++i) {
      rng::SplitMix64 rng(rng::SplitMix64::mix(20050614 + i));
      const std::string mutated = mutate_payload(payload, rng);
      const std::string label = std::string(traced ? "traced" : "untraced") +
                                " mutation " + std::to_string(i);
      const auto checkpoint = one_payload_store(mutated);
      ASSERT_NE(checkpoint.find(0), nullptr) << label;
      ASSERT_EQ(*checkpoint.find(0), mutated) << label;
      // One replication, restored from the payload: nothing is simulated,
      // so the run either returns from the payload or rejects it.
      exp::ReplicateOptions opts;
      opts.resume = &checkpoint;
      std::size_t largest = 0;
      {
        const alloc_count::AllocationCount count;
        try {
          (void)exp::replicate_hybrid(scenario, config, 1, opts);
          ++restored;
        } catch (const std::runtime_error&) {
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << label << ": threw a non-runtime_error: "
                        << e.what();
        } catch (...) {
          ADD_FAILURE() << label << ": threw a non-std exception";
        }
        largest = count.largest();
      }
      EXPECT_LT(largest, kMiB) << label;
    }
  }
  // The mutations reach both sides of the decoder.
  EXPECT_GT(restored, 0u);
  EXPECT_GT(rejected, 0u);
}

// --- checkpoint format versioning ----------------------------------------

TEST(CheckpointStore, ParsesContextRecord) {
  std::ostringstream out;
  runtime::RunReporter reporter(out);
  reporter.run_started("replicate", 2, 1);
  reporter.run_context("rp1", 0xDEADBEEFCAFEULL);
  reporter.job_payload(0, "rp1 stub");
  std::istringstream in(out.str());
  const auto store = runtime::CheckpointStore::load(in);
  EXPECT_TRUE(store.has_context());
  EXPECT_EQ(store.schema(), "rp1");
  EXPECT_EQ(store.fingerprint(), 0xDEADBEEFCAFEULL);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NO_THROW(store.require("rp1", 0xDEADBEEFCAFEULL));
}

TEST(CheckpointStore, RequireAcceptsLegacyFileWithoutContext) {
  std::istringstream in(
      "{\"event\":\"payload\",\"id\":0,\"payload\":\"rp1 stub\"}\n");
  const auto store = runtime::CheckpointStore::load(in);
  EXPECT_FALSE(store.has_context());
  // Pre-versioning files carry no context; they must keep resuming.
  EXPECT_NO_THROW(store.require("rp1", 12345));
}

TEST(CheckpointStore, RequireRejectsSchemaAndFingerprintMismatch) {
  std::ostringstream out;
  runtime::RunReporter reporter(out);
  reporter.run_context("rp1", 42);
  std::istringstream in(out.str());
  const auto store = runtime::CheckpointStore::load(in);
  EXPECT_THROW(store.require("rp2", 42), std::runtime_error);
  EXPECT_THROW(store.require("rp1", 43), std::runtime_error);
  EXPECT_NO_THROW(store.require("rp1", 42));
}

TEST(CheckpointStore, TruncatedContextRecordIsIgnored) {
  std::istringstream in(
      "{\"event\":\"context\",\"schema\":\"rp1\",\"fingerprint\":42");
  const auto store = runtime::CheckpointStore::load(in);
  EXPECT_FALSE(store.has_context());  // no closing brace → not trusted
}

TEST(Fingerprint, IgnoresWorkerCountButTracksEverythingElse) {
  exp::Scenario scenario = tiny_scenario();
  core::HybridConfig config;
  config.cutoff = 15;
  const auto base = exp::replication_fingerprint(scenario, config, 6);

  exp::Scenario other_jobs = scenario;
  other_jobs.jobs = 8;  // execution knob: provably result-neutral
  EXPECT_EQ(exp::replication_fingerprint(other_jobs, config, 6), base);

  exp::Scenario other_seed = scenario;
  other_seed.seed ^= 1;
  EXPECT_NE(exp::replication_fingerprint(other_seed, config, 6), base);

  core::HybridConfig other_cutoff = config;
  other_cutoff.cutoff = 16;
  EXPECT_NE(exp::replication_fingerprint(scenario, other_cutoff, 6), base);

  core::HybridConfig no_sketches = config;
  no_sketches.tail_quantiles = false;  // replicate_hybrid forces it off
  EXPECT_EQ(exp::replication_fingerprint(scenario, no_sketches, 6), base);

  core::HybridConfig other_crash = config;
  other_crash.resilience.crash.enabled = true;
  other_crash.resilience.crash.rate = 0.01;
  EXPECT_NE(exp::replication_fingerprint(scenario, other_crash, 6), base);

  EXPECT_NE(exp::replication_fingerprint(scenario, config, 7), base);
}

TEST(Resume, CheckpointFromDifferentExperimentIsRejected) {
  const auto scenario = tiny_scenario();
  core::HybridConfig config;
  config.cutoff = 15;

  std::ostringstream log;
  {
    runtime::RunReporter reporter(log);
    exp::ReplicateOptions opts;
    opts.reporter = &reporter;
    (void)exp::replicate_hybrid(scenario, config, 3, opts);
  }
  std::istringstream in(log.str());
  const auto checkpoint = runtime::CheckpointStore::load(in);
  ASSERT_TRUE(checkpoint.has_context());

  // Same file, different experiment: changed config, changed scenario and
  // changed replication count must all refuse to resume...
  exp::ReplicateOptions opts;
  opts.resume = &checkpoint;
  core::HybridConfig other = config;
  other.cutoff = 20;
  EXPECT_THROW((void)exp::replicate_hybrid(scenario, other, 3, opts),
               std::runtime_error);
  exp::Scenario other_scenario = scenario;
  other_scenario.num_requests += 1;
  EXPECT_THROW((void)exp::replicate_hybrid(other_scenario, config, 3, opts),
               std::runtime_error);
  EXPECT_THROW((void)exp::replicate_hybrid(scenario, config, 4, opts),
               std::runtime_error);

  // ...while the matching experiment still resumes cleanly.
  EXPECT_NO_THROW((void)exp::replicate_hybrid(scenario, config, 3, opts));
}

}  // namespace
}  // namespace pushpull
