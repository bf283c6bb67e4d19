// R7 — raw speed of the event kernel's new data structures (DESIGN §13).
//
// Three measurements over deterministic workloads (min-of-R wall time,
// except where noted):
//
// 1. Hot loop: a combined event-kernel churn — pop/schedule on the pending
//    set plus a policy-driven pull extraction every 4th slot — run once on
//    the seed structures (des::ReferenceHeap, a binary heap with lazy
//    cancellation, + the O(n) scan PullQueue) and once on the fast ones
//    (des::EventQueue's indexed heap + indexed γ-priority). Both runs fold
//    every popped (time, id) and extracted item into a checksum, which
//    must match exactly: the speedup only counts because the observable
//    behavior is identical. Gate: >= 2x events/sec.
// 2. Trace overhead: one fixed hybrid simulation with observability off vs
//    on (all categories), timing the run itself — rendering/export happens
//    at export time, outside the hot loop, which is the point of the binary
//    ring + deferred folding. The two arms run as back-to-back pairs and
//    the gate takes the median per-pair on/off ratio, because host clock
//    drift over the bench's runtime exceeds the true overhead and a
//    min-of-each-arm comparison bakes that drift into the ratio.
//    Gate: < 20% overhead.
// 3. The per-structure components (event queue alone, pull queue alone),
//    recorded as telemetry so regressions can be localized.
//
//   throughput [--rounds R] [--ops N] [--out FILE]
//
// Defaults: 7 rounds, 300000 hot-loop slots, out = BENCH_throughput.json.
// Exit 0 iff every gate passes; exit 1 on a timing-gate miss; exit 2 when
// any checksum disagrees (an exactness bug, never machine noise) — CI
// treats 2 as fatal even where timing gates are advisory.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/pull_queue.hpp"
#include "des/event_queue.hpp"
#include "des/reference_heap.hpp"
#include "exp/scenario.hpp"
#include "runtime/run_reporter.hpp"
#include "sched/pull/policy.hpp"

namespace {

using namespace pushpull;

// Deterministic 64-bit LCG; no std RNG so the workload is identical across
// platforms and rounds.
struct Lcg {
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  std::uint64_t next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state;
  }
  double uniform01() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

struct LoopResult {
  double ms = 0.0;
  std::uint64_t checksum = 0;
};

// The combined kernel churn: `ops` slots of pop + reschedule against a
// 2048-event pending set, with a pull extraction + re-add against a
// 768-item queue every 4th slot, on pending-event set `Queue`.
template <typename Queue>
LoopResult hot_loop(core::PullQueue::SelectMode mode, std::size_t ops) {
  constexpr std::size_t kPendingEvents = 2048;
  constexpr std::size_t kPullItems = 768;

  Queue queue;
  core::PullQueue pull(mode);
  const auto policy = sched::make_pull_policy(sched::PullPolicyKind::kImportance,
                                              0.5);
  sched::PullContext ctx;

  Lcg rng;
  des::EventId next_id = 0;
  for (std::size_t i = 0; i < kPendingEvents; ++i) {
    queue.push(des::Event{rng.uniform01() * 10.0, next_id++, [] {}});
  }
  workload::RequestId next_req = 0;
  for (std::size_t i = 0; i < kPullItems; ++i) {
    workload::Request r;
    r.id = next_req++;
    r.item = static_cast<catalog::ItemId>(i);
    r.arrival = rng.uniform01();
    pull.add(r, /*priority=*/1.0 + rng.uniform01(),
             /*length=*/1.0 + rng.uniform01() * 3.0,
             /*popularity=*/rng.uniform01());
  }

  LoopResult out;
  const runtime::StopWatch watch;
  for (std::size_t i = 0; i < ops; ++i) {
    des::Event ev = queue.pop();
    out.checksum = mix(out.checksum, bits_of(ev.time));
    out.checksum = mix(out.checksum, ev.id);
    queue.push(des::Event{ev.time + 0.25 + rng.uniform01() * 4.0, next_id++,
                          [] {}});
    if (i % 4 == 0) {
      ctx.now = ev.time;
      auto entry = pull.extract_best(*policy, ctx);
      out.checksum = mix(out.checksum, entry ? entry->item : 0);
      if (entry) {
        workload::Request r;
        r.id = next_req++;
        r.item = entry->item;
        r.arrival = ev.time;
        pull.add(r, 1.0 + rng.uniform01(), entry->length, entry->popularity);
      }
    }
  }
  out.ms = watch.elapsed_ms();
  return out;
}

// Event-queue-only churn (telemetry): pop + reschedule.
template <typename Queue>
LoopResult event_churn(std::size_t ops) {
  constexpr std::size_t kPending = 4096;
  Queue queue;
  Lcg rng;
  des::EventId next_id = 0;
  for (std::size_t i = 0; i < kPending; ++i) {
    queue.push(des::Event{rng.uniform01() * 10.0, next_id++, [] {}});
  }
  LoopResult out;
  const runtime::StopWatch watch;
  for (std::size_t i = 0; i < ops; ++i) {
    des::Event ev = queue.pop();
    out.checksum = mix(out.checksum, bits_of(ev.time));
    out.checksum = mix(out.checksum, ev.id);
    queue.push(des::Event{ev.time + 0.25 + rng.uniform01() * 4.0, next_id++,
                          [] {}});
  }
  out.ms = watch.elapsed_ms();
  return out;
}

// Pull-queue-only churn (telemetry): extract_best + re-add.
LoopResult pull_churn(core::PullQueue::SelectMode mode, std::size_t ops) {
  constexpr std::size_t kItems = 768;
  core::PullQueue pull(mode);
  const auto policy = sched::make_pull_policy(sched::PullPolicyKind::kImportance,
                                              0.5);
  sched::PullContext ctx;
  Lcg rng;
  workload::RequestId next_req = 0;
  for (std::size_t i = 0; i < kItems; ++i) {
    workload::Request r;
    r.id = next_req++;
    r.item = static_cast<catalog::ItemId>(i);
    r.arrival = rng.uniform01();
    pull.add(r, 1.0 + rng.uniform01(), 1.0 + rng.uniform01() * 3.0,
             rng.uniform01());
  }
  LoopResult out;
  const runtime::StopWatch watch;
  for (std::size_t i = 0; i < ops; ++i) {
    ctx.now = static_cast<double>(i) * 0.01;
    auto entry = pull.extract_best(*policy, ctx);
    out.checksum = mix(out.checksum, entry ? entry->item : 0);
    if (entry) {
      workload::Request r;
      r.id = next_req++;
      r.item = entry->item;
      r.arrival = ctx.now;
      pull.add(r, 1.0 + rng.uniform01(), entry->length, entry->popularity);
    }
  }
  out.ms = watch.elapsed_ms();
  return out;
}

template <typename Fn>
LoopResult min_of(std::size_t rounds, Fn&& fn) {
  LoopResult best = fn();
  for (std::size_t r = 1; r < rounds; ++r) {
    const LoopResult run = fn();
    if (run.checksum != best.checksum) {
      std::cerr << "throughput: checksum varies across rounds\n";
      std::exit(2);
    }
    if (run.ms < best.ms) best = run;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pushpull;
  std::size_t rounds = 7;
  std::size_t ops = 300000;
  std::string out_path = "BENCH_throughput.json";
  exp::Scenario scenario;
  scenario.num_requests = 120000;
  bench::parse_or_exit(argc, argv, [&](const exp::ArgParser& args) {
    rounds = args.get_size("rounds", rounds);
    ops = args.get_size("ops", ops);
    out_path = args.get_string("out", out_path);
    scenario.num_requests = args.get_size("requests", scenario.num_requests);
  });

  using core::PullQueue;

  // 1. Combined hot loop, seed vs fast structures.
  const LoopResult hot_seed = min_of(rounds, [&] {
    return hot_loop<des::ReferenceHeap>(PullQueue::SelectMode::kScan, ops);
  });
  const LoopResult hot_fast = min_of(rounds, [&] {
    return hot_loop<des::EventQueue>(PullQueue::SelectMode::kIndexed, ops);
  });
  const bool hot_identical = hot_seed.checksum == hot_fast.checksum;
  const double eps_seed = static_cast<double>(ops) / (hot_seed.ms / 1000.0);
  const double eps_fast = static_cast<double>(ops) / (hot_fast.ms / 1000.0);
  const double speedup = hot_seed.ms / hot_fast.ms;

  // 2. Per-structure telemetry.
  const LoopResult eq_heap =
      min_of(rounds, [&] { return event_churn<des::ReferenceHeap>(ops); });
  const LoopResult eq_indexed =
      min_of(rounds, [&] { return event_churn<des::EventQueue>(ops); });
  const LoopResult pq_scan = min_of(rounds, [&] {
    return pull_churn(PullQueue::SelectMode::kScan, ops / 4);
  });
  const LoopResult pq_indexed = min_of(rounds, [&] {
    return pull_churn(PullQueue::SelectMode::kIndexed, ops / 4);
  });
  const bool parts_identical = eq_heap.checksum == eq_indexed.checksum &&
                               pq_scan.checksum == pq_indexed.checksum;

  // 3. Trace-enabled overhead of the full hybrid run. Export/report stay
  //    outside the timed region (deferred rendering is the design).
  const auto built = scenario.build();
  core::HybridConfig obs_off;
  obs_off.cutoff = 30;
  obs_off.alpha = 0.5;
  core::HybridConfig obs_on = obs_off;
  obs_on.obs.enabled = true;
  // Machine throughput drifts over the bench's runtime by far more than
  // the true overhead, so the two arms are timed as back-to-back pairs
  // (order alternating to cancel first-runner bias) and the gate uses the
  // median per-pair ratio: drift within one ~100 ms pair is small, and
  // the median discards the pairs a background hiccup landed on.
  const auto timed_ms = [&](const core::HybridConfig& config) {
    const runtime::StopWatch watch;
    (void)exp::run_hybrid(built, config);
    return watch.elapsed_ms();
  };
  (void)timed_ms(obs_off);  // warm both paths (allocator, page cache)
  (void)timed_ms(obs_on);
  double off_ms = 0.0;
  double on_ms = 0.0;
  std::vector<double> ratios;
  ratios.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    double off = 0.0;
    double on = 0.0;
    if (r % 2 == 0) {
      off = timed_ms(obs_off);
      on = timed_ms(obs_on);
    } else {
      on = timed_ms(obs_on);
      off = timed_ms(obs_off);
    }
    ratios.push_back(on / off);
    if (r == 0 || off < off_ms) off_ms = off;
    if (r == 0 || on < on_ms) on_ms = on;
  }
  std::sort(ratios.begin(), ratios.end());
  const double median_ratio = ratios[ratios.size() / 2];
  const double trace_pct = (median_ratio - 1.0) * 100.0;

  const bool pass_speedup = hot_identical && speedup >= 2.0;
  const bool pass_trace = trace_pct < 20.0;
  const bool pass = pass_speedup && pass_trace && parts_identical;

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "throughput: cannot open " << out_path << "\n";
    return 2;
  }
  out << "{\n"
      << "  \"bench\": \"throughput\",\n"
      << "  \"rounds\": " << rounds << ",\n"
      << "  \"ops\": " << ops << ",\n"
      << "  \"hot_loop\": {\n"
      << "    \"seed_ms\": " << hot_seed.ms << ",\n"
      << "    \"fast_ms\": " << hot_fast.ms << ",\n"
      << "    \"seed_events_per_sec\": " << eps_seed << ",\n"
      << "    \"fast_events_per_sec\": " << eps_fast << ",\n"
      << "    \"speedup\": " << speedup << ",\n"
      << "    \"bit_identical\": " << (hot_identical ? "true" : "false")
      << "\n  },\n"
      << "  \"event_queue\": {\n"
      << "    \"heap_ms\": " << eq_heap.ms << ",\n"
      << "    \"indexed_ms\": " << eq_indexed.ms << ",\n"
      << "    \"bit_identical\": "
      << (eq_heap.checksum == eq_indexed.checksum ? "true" : "false")
      << "\n  },\n"
      << "  \"pull_queue\": {\n"
      << "    \"scan_ms\": " << pq_scan.ms << ",\n"
      << "    \"indexed_ms\": " << pq_indexed.ms << ",\n"
      << "    \"bit_identical\": "
      << (pq_scan.checksum == pq_indexed.checksum ? "true" : "false")
      << "\n  },\n"
      << "  \"trace\": {\n"
      << "    \"baseline_ms\": " << off_ms << ",\n"
      << "    \"traced_ms\": " << on_ms << ",\n"
      << "    \"enabled_overhead_pct\": " << trace_pct << "\n  },\n"
      << "  \"pass_speedup\": " << (pass_speedup ? "true" : "false") << ",\n"
      << "  \"pass_trace_overhead\": " << (pass_trace ? "true" : "false")
      << ",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << "\n}\n";

  std::cout << "hot loop: seed " << hot_seed.ms << " ms, fast " << hot_fast.ms
            << " ms (speedup " << speedup << "x, "
            << (hot_identical ? "bit-identical" : "DIVERGED") << ")\n"
            << "event queue: heap " << eq_heap.ms << " ms, indexed heap "
            << eq_indexed.ms << " ms\n"
            << "pull queue: scan " << pq_scan.ms << " ms, indexed "
            << pq_indexed.ms << " ms\n"
            << "trace overhead: " << trace_pct << "% (baseline " << off_ms
            << " ms, traced " << on_ms << " ms)\n"
            << "wrote " << out_path << "\n";
  if (!hot_identical || !parts_identical) return 2;
  return pass ? 0 : 1;
}
