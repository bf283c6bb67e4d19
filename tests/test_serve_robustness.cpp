// Tests for the live failure model (DESIGN §10): per-request deadlines and
// their DES-impatience mirror, retry/loss on the burst-error channel,
// hedged re-requests, the overload ladder, the sv2 crash-consistent
// journal (recovery at every byte offset, kill -> resume -> replay
// bit-exactness), graceful drain, the machine-checked conservation
// identity over a seeded chaos property suite, and the completion queue's
// close-then-drain discipline under multi-producer stress.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/hybrid_server.hpp"
#include "obs/export.hpp"
#include "serve/serve.hpp"

namespace pushpull::serve {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

ServeConfig robust_base() {
  ServeConfig c;
  c.num_items = 40;
  c.num_classes = 3;
  c.cutoff = 12;
  c.duration = 10.0;
  c.target_qps = 6.0;
  c.seed = 20050614;
  c.accelerated = true;
  return c;
}

struct JournaledRun {
  ServeReport report;
  std::string trace;
};

JournaledRun run_journaled(const ServeConfig& c) {
  const auto cat = c.build_catalog();
  const auto pop = c.build_population();
  LoadDriver driver(cat, pop, c.target_qps, c.duration, c.seed);
  std::ostringstream out;
  JournaledRun run;
  {
    TraceRecorder recorder(out, c);
    LiveServer server(cat, pop, c);
    run.report = server.run_accelerated(driver, &recorder);
  }
  run.trace = out.str();
  return run;
}

ServeReport run_plain(const ServeConfig& c) {
  const auto cat = c.build_catalog();
  const auto pop = c.build_population();
  LoadDriver driver(cat, pop, c.target_qps, c.duration, c.seed);
  LiveServer server(cat, pop, c);
  return server.run_accelerated(driver, nullptr);
}

// Canonical byte rendering of per-class statistics; equality here is the
// bit-exactness check the acceptance criteria demand.
std::string fingerprint(const std::vector<metrics::ClassStats>& stats) {
  std::ostringstream out;
  for (std::size_t cls = 0; cls < stats.size(); ++cls) {
    const metrics::ClassStats& s = stats[cls];
    out << cls << '|' << s.arrived << '|' << s.served << '|' << s.served_push
        << '|' << s.served_pull << '|' << s.abandoned << '|' << s.corrupted
        << '|' << s.retries << '|' << s.shed << '|' << s.lost << '|'
        << s.rejected << '|' << obs::render_number(s.wait.mean()) << '|'
        << obs::render_number(s.wait_p95.count() ? s.wait_p95.value() : 0.0)
        << '\n';
  }
  return out.str();
}

// First record's framed length — a cut below this loses the header.
std::size_t header_frame_len(const std::string& journal) {
  std::istringstream in(journal);
  JournalReader reader(in);
  EXPECT_TRUE(reader.next().has_value());
  return reader.bytes_consumed();
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

void write_bytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Deadlines: the DES impatience mirror
// ---------------------------------------------------------------------------

TEST(LiveDeadlines, ExpiryMatchesDesImpatienceBitForBit) {
  // A deadline is the engine's patience: the live driver and a plain DES
  // run over the same plan draw the same patience stream at the same
  // instants, so every per-class statistic — including who abandoned —
  // must agree exactly, across push-heavy, hybrid and pure-pull regimes.
  for (const std::size_t cutoff : {std::size_t{0}, std::size_t{12},
                                   std::size_t{40}}) {
    ServeConfig c = robust_base();
    c.cutoff = cutoff;
    c.mean_deadline = 4.0;

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
    EXPECT_EQ(fingerprint(live.per_class), fingerprint(sim.per_class))
        << "cutoff " << cutoff;
    EXPECT_GT(live.timed_out, 0u) << "test must actually exercise expiry";
  }
}

TEST(LiveDeadlines, PerClassScalesSkewTimeoutRates) {
  ServeConfig c = robust_base();
  c.duration = 20.0;
  c.mean_deadline = 3.0;
  c.deadline_scale = {4.0, 1.0, 0.25};  // premium waits 16x longer
  const ServeReport r = run_plain(c);
  ASSERT_EQ(r.per_class.size(), 3u);
  const auto rate = [](const metrics::ClassStats& s) {
    return s.arrived ? static_cast<double>(s.abandoned) /
                           static_cast<double>(s.arrived)
                     : 0.0;
  };
  EXPECT_LT(rate(r.per_class[0]), rate(r.per_class[2]));
  EXPECT_TRUE(r.ledger.balanced());
}

TEST(LiveDeadlines, SpikeTightensOnlyTheWindow) {
  ServeConfig base = robust_base();
  base.duration = 20.0;
  base.mean_deadline = 6.0;
  ServeConfig spiked = base;
  spiked.deadline_spike_factor = 0.1;
  spiked.deadline_spike_start = 5.0;
  spiked.deadline_spike_duration = 10.0;
  const ServeReport a = run_plain(base);
  const ServeReport b = run_plain(spiked);
  // The spike multiplies draws *after* consuming the stream, so the two
  // runs see identical arrivals and identical raw patience draws; tighter
  // deadlines can only increase timeouts.
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_GE(b.timed_out, a.timed_out);
  EXPECT_GT(b.timed_out, 0u);
  EXPECT_TRUE(b.ledger.balanced());
}

// ---------------------------------------------------------------------------
// Retry / loss on the burst-error channel
// ---------------------------------------------------------------------------

TEST(LiveRetry, AlwaysCorruptedPullsExhaustRetriesAndAreLost) {
  ServeConfig c = robust_base();
  c.cutoff = 0;  // pure pull, so every transmission faces the channel
  c.duration = 6.0;
  c.fault.enabled = true;
  c.fault.channel.p_good_to_bad = 1.0;
  c.fault.channel.p_bad_to_good = 0.0;
  c.fault.channel.corrupt_good = 1.0;
  c.fault.channel.corrupt_bad = 1.0;  // nothing ever gets through
  c.fault.retry.max_retries = 2;
  c.fault.retry.backoff_base = 0.5;
  const ServeReport r = run_plain(c);
  EXPECT_EQ(r.served, 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_EQ(r.lost, r.arrivals);
  EXPECT_TRUE(r.ledger.balanced());
  EXPECT_EQ(r.ledger.lost, r.arrivals);
}

TEST(LiveRetry, BoundedBackoffReentersDeterministically) {
  ServeConfig c = robust_base();
  c.duration = 15.0;
  c.fault.enabled = true;
  c.fault.channel.p_good_to_bad = 0.3;
  c.fault.channel.p_bad_to_good = 0.3;
  c.fault.channel.corrupt_bad = 0.9;
  const ServeReport a = run_plain(c);
  const ServeReport b = run_plain(c);
  EXPECT_GT(a.retries, 0u) << "test must actually exercise retries";
  EXPECT_EQ(fingerprint(a.per_class), fingerprint(b.per_class));
  EXPECT_EQ(a.corrupted_pull_transmissions, b.corrupted_pull_transmissions);
  EXPECT_TRUE(a.ledger.balanced());
}

// ---------------------------------------------------------------------------
// Hedging
// ---------------------------------------------------------------------------

TEST(LiveHedge, DuplicatesNeverDoubleCount) {
  ServeConfig c = robust_base();
  c.duration = 20.0;
  c.target_qps = 10.0;
  c.mean_deadline = 8.0;
  c.hedge_after = 2.0;
  const ServeReport r = run_plain(c);
  EXPECT_GT(r.hedges_posted, 0u);
  EXPECT_LE(r.hedges_absorbed, r.hedges_posted);
  // Hedge duplicates are synthetic: the ledger accounts only primaries.
  EXPECT_TRUE(r.ledger.balanced());
  EXPECT_EQ(r.ledger.injected, r.arrivals);
}

// ---------------------------------------------------------------------------
// Overload ladder
// ---------------------------------------------------------------------------

TEST(LiveLadder, TransitionsAreOrderedAndJournaled) {
  ServeConfig c = robust_base();
  c.duration = 30.0;
  c.target_qps = 12.0;
  c.cutoff = 4;
  c.overload.enabled = true;
  c.overload.eval_interval = 1.0;
  c.overload.capacity_ref = 8;  // small soft cap so pressure builds fast
  c.mean_deadline = 12.0;
  const JournaledRun run = run_journaled(c);
  EXPECT_GT(run.report.ladder_transitions, 0u);
  EXPECT_GT(run.report.max_overload_level,
            pushpull::resilience::OverloadLevel::kNormal);
  ASSERT_EQ(run.report.overload_transitions.size(),
            run.report.ladder_transitions);
  for (std::size_t i = 1; i < run.report.overload_transitions.size(); ++i) {
    EXPECT_LE(run.report.overload_transitions[i - 1].time,
              run.report.overload_transitions[i].time);
  }
  EXPECT_NE(run.trace.find("\"d\":\"ladder\""), std::string::npos);
  EXPECT_TRUE(run.report.ledger.balanced());
}

// The serve_chaos figure's sweep at its default seed: 200 broadcast units
// per load under uniform deadlines (mean 6), the burst-error channel with
// retries, a drop-lowest-priority queue of 32 and the ladder. No class
// fails a larger share of its arrivals than the class below it, compared
// exactly by cross-multiplication. Failures are totals, not timeouts
// alone: the ladder turns low-class timeouts into sheds and rejections on
// purpose.
TEST(LiveLadder, NoClassFailsMoreOftenThanTheClassBelow) {
  for (const double qps : {4.0, 8.0, 14.0, 22.0}) {
    ServeConfig c;
    c.accelerated = true;
    c.duration = 200.0;
    c.target_qps = qps;
    c.mean_deadline = 6.0;
    c.fault.enabled = true;
    c.fault.channel.p_good_to_bad = 0.05;
    c.fault.channel.p_bad_to_good = 0.25;
    c.fault.channel.corrupt_bad = 0.6;
    c.fault.channel.corrupt_good = 0.01;
    c.fault.queue_capacity = 32;
    c.fault.shed_policy = fault::ShedPolicy::kDropLowestPriority;
    c.overload.enabled = true;
    const ServeReport r = run_plain(c);
    ASSERT_EQ(r.per_class.size(), 3u);
    for (std::size_t cls = 0; cls + 1 < r.per_class.size(); ++cls) {
      const auto& hi = r.per_class[cls];
      const auto& lo = r.per_class[cls + 1];
      ASSERT_GT(hi.arrived, 0u);
      ASSERT_GT(lo.arrived, 0u);
      const std::uint64_t hi_failed =
          hi.abandoned + hi.shed + hi.rejected + hi.lost;
      const std::uint64_t lo_failed =
          lo.abandoned + lo.shed + lo.rejected + lo.lost;
      EXPECT_LE(hi_failed * lo.arrived, lo_failed * hi.arrived)
          << "qps " << qps << ", classes " << cls << " and " << cls + 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

TEST(LiveDrain, DrainAfterStopsAdmissionAndBalancesTheLedger) {
  ServeConfig c = robust_base();
  c.duration = 30.0;
  c.mean_deadline = 6.0;
  c.drain_after = 10.0;
  const JournaledRun run = run_journaled(c);
  EXPECT_TRUE(run.report.drained);
  EXPECT_EQ(run.report.drain_time, 10.0);
  EXPECT_GT(run.report.skipped_arrivals, 0u);
  EXPECT_TRUE(run.report.ledger.balanced());
  EXPECT_NE(run.trace.find("\"d\":\"drain\""), std::string::npos);
  // The sealed footer carries the same ledger the report does.
  std::istringstream in(run.trace);
  const RecordedRun loaded = load_trace(in);
  EXPECT_EQ(loaded.ledger.render_json(), run.report.ledger.render_json());
}

// ---------------------------------------------------------------------------
// sv2 journal: header round trip, recovery, resume, replay
// ---------------------------------------------------------------------------

TEST(Journal, HeaderRoundTripsTheFullFailureModel) {
  ServeConfig c = robust_base();
  c.mean_deadline = 5.5;
  c.deadline_scale = {2.0, 1.0, 0.5};
  c.deadline_spike_factor = 0.3;
  c.deadline_spike_start = 4.0;
  c.deadline_spike_duration = 2.0;
  c.fault.enabled = true;
  c.fault.channel.corrupt_bad = 0.7;
  c.fault.queue_capacity = 24;
  c.fault.shed_policy = fault::ShedPolicy::kDropLowestPriority;
  c.overload.enabled = true;
  c.overload.capacity_ref = 16;
  c.hedge_after = 3.0;
  c.drain_after = 7.0;
  c.journal_sync_every = 7;

  std::ostringstream first;
  {
    TraceRecorder recorder(first, c);
    recorder.finish();
  }
  std::istringstream in(first.str());
  const RecordedRun run = load_trace(in);
  // Re-recording with the loaded config must reproduce the header bytes —
  // i.e. every failure-model field survived the round trip.
  std::ostringstream second;
  {
    TraceRecorder recorder(second, run.config);
    recorder.finish();
  }
  EXPECT_EQ(first.str(), second.str());
}

TEST(Journal, RecoversALongestValidPrefixAtEveryByteOffset) {
  ServeConfig c = robust_base();
  c.duration = 4.0;
  c.target_qps = 4.0;
  c.mean_deadline = 3.0;
  const JournaledRun run = run_journaled(c);
  const std::size_t header_len = header_frame_len(run.trace);
  std::uint64_t last_records = 0;
  for (std::size_t cut = 0; cut <= run.trace.size(); ++cut) {
    std::istringstream in(run.trace.substr(0, cut));
    if (cut < header_len) {
      // The config itself is gone — recovery is meaningless.
      EXPECT_THROW((void)recover_trace(in), std::runtime_error) << cut;
      continue;
    }
    const RecoveredRun r = recover_trace(in);
    EXPECT_GE(r.records, 1u) << cut;
    EXPECT_LE(r.bytes_consumed, cut) << cut;
    // More surviving bytes can only ever salvage more records.
    EXPECT_GE(r.records, last_records) << cut;
    last_records = r.records;
    EXPECT_EQ(r.sealed, cut == run.trace.size()) << cut;
  }
}

TEST(Journal, KillResumeReplayIsBitExact) {
  // The acceptance path: kill at an arbitrary point -> serve --resume from
  // the truncated journal -> replay of the resumed journal reproduces the
  // recovered prefix's per-class statistics bit-for-bit.
  ServeConfig c = robust_base();
  c.duration = 12.0;
  c.mean_deadline = 5.0;
  c.deadline_scale = {2.0, 1.0, 0.5};
  c.fault.enabled = true;
  c.fault.channel.corrupt_bad = 0.6;
  c.hedge_after = 3.0;
  const JournaledRun run = run_journaled(c);
  const std::size_t header_len = header_frame_len(run.trace);
  ASSERT_LT(header_len, run.trace.size());

  const std::size_t span = run.trace.size() - header_len;
  for (std::size_t k = 1; k <= 5; ++k) {
    const std::size_t cut = header_len + span * k / 5;
    const std::string killed = temp_path("robustness_killed.svj");
    const std::string resumed = temp_path("robustness_resumed.svj");
    write_bytes(killed, std::string_view(run.trace).substr(0, cut));

    const ResumeResult resume = resume_from_journal(killed, resumed);
    EXPECT_TRUE(resume.report.ledger.balanced()) << "cut " << cut;

    const RecordedRun reloaded = load_trace_file(resumed);
    EXPECT_EQ(reloaded.requests.size(),
              resume.recovered.run.requests.size());
    const auto replayed = replay(reloaded);
    ASSERT_EQ(replayed.size(), 1u);
    EXPECT_EQ(fingerprint(replayed.front().per_class),
              fingerprint(resume.report.per_class))
        << "cut " << cut;
    std::remove(killed.c_str());
    std::remove(resumed.c_str());
  }
}

TEST(Journal, EveryRecordingReplaysThroughTheOneEngine) {
  // Plain and robust recordings alike replay through core::HybridServer —
  // there is no second engine to name — and rep 0 reproduces the run.
  ServeConfig robust = robust_base();
  robust.mean_deadline = 4.0;
  robust.deadline_scale = {2.0, 1.0, 0.5};
  robust.hedge_after = 2.0;
  robust.drain_after = 7.0;
  for (const ServeConfig& c : {robust_base(), robust}) {
    const JournaledRun run = run_journaled(c);
    std::istringstream in(run.trace);
    const RecordedRun loaded = load_trace(in);
    const auto results = replay(loaded);
    EXPECT_EQ(render_replay_report(loaded, results).find("\"engine\""),
              std::string::npos);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(fingerprint(results.front().per_class),
              fingerprint(run.report.per_class));
    EXPECT_EQ(results.front().end_time, run.report.end_time);
  }
}

// ---------------------------------------------------------------------------
// The chaos harness itself
// ---------------------------------------------------------------------------

TEST(ChaosHarness, EveryReplicationSurvivesKillResumeReplay) {
  ServeConfig c = chaos_profile(robust_base());
  c.duration = 8.0;
  ChaosOptions options;
  options.replications = 3;
  options.scratch_dir = ::testing::TempDir();
  const ChaosReport report = run_chaos(c, options);
  ASSERT_EQ(report.reps.size(), 3u);
  EXPECT_TRUE(report.all_exact());
  for (const ChaosRepOutcome& rep : report.reps) {
    EXPECT_TRUE(rep.ledger.balanced()) << "rep " << rep.rep;
    EXPECT_GT(rep.kill_offset, 0u) << "rep " << rep.rep;
    EXPECT_LE(rep.kill_offset, rep.journal_bytes);
    EXPECT_GE(rep.records_recovered, 1u);
  }
  // Same config + options -> byte-identical report (the whole harness is
  // seeded, including the kill offsets).
  const ChaosReport again = run_chaos(c, options);
  EXPECT_EQ(render_chaos_report(report), render_chaos_report(again));
}

// ---------------------------------------------------------------------------
// Conservation property suite: 500 seeded chaos cases
// ---------------------------------------------------------------------------

TEST(Conservation, HoldsExactlyAcross500SeededChaosCases) {
  for (std::uint64_t case_id = 1; case_id <= 500; ++case_id) {
    ServeConfig c;
    c.accelerated = true;
    c.num_items = 30;
    c.num_classes = 2 + case_id % 3;
    c.cutoff = case_id % 31;
    c.duration = 3.0 + static_cast<double>(case_id % 4);
    c.target_qps = 3.0 + static_cast<double>(case_id % 5);
    c.seed = case_id * 977 + 11;
    if (case_id % 3 != 0) {
      c.mean_deadline = 2.0 + 0.25 * static_cast<double>(case_id % 8);
    }
    if (case_id % 4 == 1) {
      // Must carry one factor per class; skew the extremes.
      c.deadline_scale.assign(c.num_classes, 1.0);
      c.deadline_scale.front() = 2.0;
      c.deadline_scale.back() = 0.5;
    }
    if (case_id % 5 == 2) {
      c.deadline_spike_factor = 0.4;
      c.deadline_spike_start = c.duration * 0.3;
      c.deadline_spike_duration = c.duration * 0.4;
    }
    if (case_id % 2 == 0) {
      c.fault.enabled = true;
      c.fault.channel.p_good_to_bad = 0.2;
      c.fault.channel.p_bad_to_good = 0.4;
      c.fault.channel.corrupt_bad = 0.5;
      c.fault.retry.max_retries = 1 + static_cast<std::uint32_t>(case_id % 3);
      c.fault.retry.backoff_base = 0.5;
    }
    if (case_id % 3 == 1) {
      c.fault.queue_capacity = 8 + case_id % 9;
      c.fault.shed_policy = case_id % 6 == 1
                                ? fault::ShedPolicy::kDropLowestPriority
                                : fault::ShedPolicy::kDropTail;
    }
    if (case_id % 4 == 2) {
      c.overload.enabled = true;
      c.overload.eval_interval = 1.0;
      c.overload.capacity_ref = 8;
    }
    if (case_id % 7 == 3) c.hedge_after = 1.5;
    if (case_id % 6 == 4) c.drain_after = c.duration * 0.6;
    ASSERT_NO_THROW(c.validate()) << "case " << case_id;

    // The live run machine-checks the identity and throws on any
    // imbalance — a completed run IS the conservation proof; the explicit
    // checks below pin the report copy too.
    JournaledRun run;
    ASSERT_NO_THROW(run = run_journaled(c)) << "case " << case_id;
    const ServeReport& r = run.report;
    EXPECT_TRUE(r.ledger.balanced()) << "case " << case_id;
    EXPECT_EQ(r.ledger.injected, r.arrivals) << "case " << case_id;
    EXPECT_EQ(r.ledger.delivered, r.served) << "case " << case_id;
    if (!r.drained) {
      EXPECT_EQ(r.ledger.in_flight_at_drain, 0u) << "case " << case_id;
    }
    // Every knob above lives in the engine, so the recording replays
    // through the DES: rep 0 reproduces the case bit-for-bit.
    std::istringstream in(run.trace);
    const RecordedRun loaded = load_trace(in);
    const std::vector<core::SimResult> replayed = replay(loaded);
    ASSERT_EQ(replayed.size(), 1u) << "case " << case_id;
    const core::SimResult& sim = replayed.front();
    EXPECT_EQ(fingerprint(sim.per_class), fingerprint(r.per_class))
        << "case " << case_id;
    EXPECT_EQ(sim.end_time, r.end_time) << "case " << case_id;
    EXPECT_EQ(sim.push_transmissions, r.push_transmissions)
        << "case " << case_id;
    EXPECT_EQ(sim.pull_transmissions, r.pull_transmissions)
        << "case " << case_id;
  }
}

// ---------------------------------------------------------------------------
// CompletionQueue: close-then-drain under multi-producer stress
// ---------------------------------------------------------------------------

TEST(CompletionQueueStress, CloseThenDrainLosesAndDuplicatesNothing) {
  // Producers hammer a tiny queue while the consumer closes it partway
  // through the drain. The contract: every accepted post is delivered
  // exactly once; every refused post was refused *after* close; nothing
  // disappears in the race between a producer's last post and close().
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  constexpr int kTotal = kProducers * kPerProducer;
  for (int round = 0; round < 20; ++round) {
    CompletionQueue queue(8);
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> refused{0};
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&queue, &accepted, &refused, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          Completion c;
          c.kind = CompletionKind::kArrival;
          c.request.id =
              static_cast<workload::RequestId>(p * kPerProducer + i);
          if (queue.post(c)) {
            accepted.fetch_add(1);
          } else {
            refused.fetch_add(1);
          }
        }
      });
    }

    std::vector<char> seen(kTotal, 0);
    std::uint64_t delivered = 0;
    const std::uint64_t close_after =
        static_cast<std::uint64_t>(50 + round * 17);  // always < kTotal
    for (;;) {
      const auto c = queue.pop(0.05);
      if (c.has_value()) {
        ASSERT_LT(c->request.id, static_cast<workload::RequestId>(kTotal));
        ASSERT_EQ(seen[c->request.id], 0) << "double delivery";
        seen[c->request.id] = 1;
        ++delivered;
        if (delivered == close_after) queue.close();
      } else if (queue.closed()) {
        // Closed and momentarily empty: no further item can ever appear
        // (post() checks closed_ under the same mutex), so this is the
        // drain-complete condition.
        break;
      }
    }
    for (auto& t : producers) t.join();

    EXPECT_EQ(accepted.load() + refused.load(),
              static_cast<std::uint64_t>(kTotal));
    EXPECT_EQ(delivered, accepted.load()) << "accepted posts were lost";
    EXPECT_EQ(queue.posted(), accepted.load());
    EXPECT_GT(refused.load(), 0u) << "close must actually race the posts";
    EXPECT_EQ(queue.depth(), 0u);
  }
}

}  // namespace
}  // namespace pushpull::serve
