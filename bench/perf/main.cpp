// The repo's benchmark (README.md here). Runs one workload and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
//   perf_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--out-dir DIR]
//   perf_bench --smoke
//   perf_bench --workload NAME --print-digest
//
// --trace 0 (the default) times the workload untraced: the median of
// repeated set-ups, then one untimed warm-up repetition and timed
// repetitions until S seconds (default 10) have been measured.
// --trace 1 makes one traced pass that prints the per-layer metrics and the
// span self-time table and writes DIR/spans-NAME.jsonl. --smoke runs every
// workload at 1/100 size and checks outputs only. --print-digest prints one
// repetition's digest (the content of expected/NAME.txt at the default
// seed). DIR (default build-perf) also receives the serve journal.
//
// Exit 0 when every check passed, 2 when one failed (as bench/throughput
// does), 1 on a usage or set-up error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/cli.hpp"
#include "obs/export.hpp"
#include "runtime/run_reporter.hpp"
#include "runtime/thread_pool.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace pushpull;
using namespace pushpull::perf;

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

// The metric names and units of BENCHMARK.json at the repo root.
constexpr MetricDef kEndToEnd[] = {
    {"requests_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"workload.build_s", "s"},
    {"workload.requests", "count"},
    {"scenario.shape_s", "s"},
    {"runtime.parallel_efficiency", "ratio"},
    {"core.run_s", "s"},
    {"core.ns_per_event", "ns"},
    {"core.pull_enters", "count"},
    {"core.pull_extracts", "count"},
    {"core.pull_queue_peak", "count"},
    {"core.push_tx", "count"},
    {"core.pull_tx", "count"},
    {"core.abandoned", "count"},
    {"core.rejected", "count"},
    {"core.pull_replay_ns_per_extract", "ns"},
    {"des.events_scheduled", "count"},
    {"des.events_dispatched", "count"},
    {"des.events_cancelled", "count"},
    {"des.useful_ratio", "ratio"},
    {"des.replay_ns_per_op", "ns"},
    {"fault.retries", "count"},
    {"fault.corrupt_tx", "count"},
    {"fault.shed", "count"},
    {"resilience.crashes", "count"},
    {"resilience.ladder_transitions", "count"},
    {"serve.plan_s", "s"},
    {"serve.loop_s", "s"},
    {"serve.cq_posted", "count"},
    {"serve.cq_high_water", "count"},
    {"serve.journal_encode_s", "s"},
    {"serve.journal_sync_s", "s"},
    {"serve.journal_bytes_per_request", "B/request"},
    {"serve.journal_records", "count"},
    {"serve.load_s", "s"},
    {"serve.replay_s", "s"},
    {"serve.record_requests_per_s", "1/s"},
    {"serve.replay_requests_per_s", "1/s"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.trace_events_emitted", "count"},
    {"bench.span_coverage", "ratio"},
};

/// Set-up is repeated and its median reported, so one slow allocation
/// does not decide setup_s: at least kMinSetupRuns times and until
/// kMinSetupSeconds have passed (a 5 ms set-up is too short to time once),
/// at most kMaxSetupRuns times.
constexpr std::size_t kMinSetupRuns = 3;
constexpr std::size_t kMaxSetupRuns = 25;
constexpr double kMinSetupSeconds = 0.5;

struct Options {
  std::string workload;
  Params params;
  double seconds = 10.0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The committed digest of `workload` at the default seed.
std::string expected_digest(const std::string& workload) {
  const std::string path =
      std::string(PERF_EXPECTED_DIR) + "/" + workload + ".txt";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

/// Prints the metrics as "# name value unit" lines, then the JSON result
/// as the last line.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [def, value] = metrics[i];
    const std::string number =
        obs::render_number(std::isfinite(value) ? value : 0.0);
    std::cout << "# " << def.name << " " << number << " " << def.unit << "\n";
    json << (i == 0 ? "" : ", ") << "\"" << def.name << "\": {\"value\": "
         << number << ", \"unit\": \"" << def.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

int run_timed(Workload& workload, const Options& opts) {
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  while (setup_s.size() < kMinSetupRuns ||
         (setup_total_s < kMinSetupSeconds && setup_s.size() < kMaxSetupRuns)) {
    const runtime::StopWatch watch;
    workload.setup();
    setup_s.push_back(watch.elapsed_ms() / 1000.0);
    setup_total_s += setup_s.back();
  }
  const bool pinned = opts.params.seed == kDefaultSeed;
  std::string reference = pinned ? expected_digest(opts.workload) : "";

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> rates;
  double timed_s = 0.0;
  double rss_mb = 0.0;
  // Repetition 0 is the untimed warm-up; it is checked like the others.
  for (std::size_t rep = 0; rep == 0 || timed_s < opts.seconds; ++rep) {
    ++attempted;
    const runtime::StopWatch watch;
    Rep result;
    std::string error;
    try {
      result = workload.run();
    } catch (const std::exception& e) {
      error = std::string("threw: ") + e.what();
    }
    const double s = watch.elapsed_ms() / 1000.0;
    if (rep > 0) timed_s += s;
    if (error.empty() && reference.empty()) reference = result.digest;
    if (error.empty() && result.digest != reference) {
      error = pinned ? "digest differs from expected/" + opts.workload + ".txt"
                     : "digest differs from the warm-up's";
    }
    if (error.empty()) error = result.violation;
    std::cout << "# rep " << rep << (rep == 0 ? " (warm-up)" : "") << ": "
              << obs::render_number(s) << " s, "
              << obs::render_number(static_cast<double>(result.requests) / s)
              << " requests/s" << (error.empty() ? "" : ", FAILED") << "\n";
    if (!error.empty()) {
      ++failed;
      std::cerr << "perf_bench: " << opts.workload << " rep " << rep << ": "
                << error << "\n";
    } else if (rep > 0) {
      rates.push_back(static_cast<double>(result.requests) / s);
    }
    // Read after set-up and the warm-up: how many timed repetitions fit in
    // the run depends on machine speed, and must not move the peak.
    if (rep == 0) rss_mb = peak_rss_mb();
  }
  print_result(failed == 0, attempted, failed,
               {{kEndToEnd[0], median(rates)},
                {kEndToEnd[1], median(setup_s)},
                {kEndToEnd[2], rss_mb}});
  return failed == 0 ? 0 : 2;
}

int run_traced(Workload& workload, const Options& opts) {
  SpanLog spans;
  Layers layers;
  Checks checks;
  std::string digest;
  try {
    spans.span(opts.workload,
               [&] { digest = workload.traced(spans, layers, checks); });
    if (opts.params.seed == kDefaultSeed) {
      checks.expect(digest == expected_digest(opts.workload),
                    "digest differs from expected/" + opts.workload + ".txt");
    }
  } catch (const std::exception& e) {
    checks.expect(false, std::string("threw: ") + e.what());
  }
  layers["bench.span_coverage"] = spans.child_coverage();

  spans.print_self_times(std::cout);
  const std::string path =
      opts.params.out_dir + "/spans-" + opts.workload + ".jsonl";
  std::ofstream out(path);
  spans.write_jsonl(out);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::cout << "# spans written to " << path << "\n";

  std::vector<std::pair<MetricDef, double>> metrics;
  for (const MetricDef& def : kPerLayer) {
    const auto it = layers.find(std::string(def.name));
    metrics.emplace_back(def, it == layers.end() ? 0.0 : it->second);
  }
  for (const auto& [name, value] : layers) {
    if (std::none_of(std::begin(kPerLayer), std::end(kPerLayer),
                     [&](const MetricDef& def) { return def.name == name; })) {
      throw std::logic_error("undeclared per-layer metric " + name);
    }
  }
  for (const std::string& failure : checks.failures) {
    std::cerr << "perf_bench: " << opts.workload << " traced: " << failure
              << "\n";
  }
  print_result(checks.failures.empty(), std::max<std::size_t>(checks.attempted, 1),
               checks.failures.size(), metrics);
  return checks.failures.empty() ? 0 : 2;
}

/// Every workload at 1/100 size: two repetitions and a traced pass, whose
/// digests must agree and whose invariants must hold. No timing.
int run_smoke(const Options& opts) {
  bool ok = true;
  for (const std::string_view name : kWorkloads) {
    Params params = opts.params;
    params.scale = 100;
    const auto workload = make_workload(name, params);
    Checks checks;
    try {
      workload->setup();
      const Rep first = workload->run();
      const Rep second = workload->run();
      checks.expect(first.violation.empty(), first.violation);
      checks.expect(second.violation.empty(), second.violation);
      checks.expect(first.digest == second.digest,
                    "repetitions disagree on the digest");
      SpanLog spans;
      Layers layers;
      checks.expect(workload->traced(spans, layers, checks) == first.digest,
                    "traced run's digest differs from the repetitions'");
    } catch (const std::exception& e) {
      checks.expect(false, std::string("threw: ") + e.what());
    }
    std::cout << "smoke " << name << ": "
              << (checks.failures.empty() ? "ok" : "FAILED") << " ("
              << checks.attempted << " checks)\n";
    for (const std::string& failure : checks.failures) {
      std::cerr << "perf_bench: smoke " << name << ": " << failure << "\n";
    }
    ok = ok && checks.failures.empty();
  }
  return ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const exp::ArgParser args(argc, argv);
    args.require_known({"workload", "seed", "seconds", "trace", "smoke",
                        "print-digest", "out-dir"});
    Options opts;
    opts.workload = args.get_string("workload", "");
    opts.params.seed = args.get_u64("seed", kDefaultSeed);
    opts.params.jobs =
        std::min<std::size_t>(4, runtime::ThreadPool::default_concurrency());
    opts.seconds = args.get_positive_double("seconds", 10.0);
    opts.params.out_dir = args.get_string("out-dir", opts.params.out_dir);
    const std::size_t trace = args.get_size("trace", 0);
    if (trace > 1) throw std::invalid_argument("--trace must be 0 or 1");
    std::filesystem::create_directories(opts.params.out_dir);

    if (args.has("smoke")) return run_smoke(opts);
    const auto workload = make_workload(opts.workload, opts.params);
    if (!workload) {
      throw std::invalid_argument(
          "--workload must be one of paper-sweep, deep-pull, chaos-mix, "
          "serve-journal");
    }
    if (args.has("print-digest")) {
      workload->setup();
      std::cout << workload->run().digest;
      return 0;
    }
    return trace == 1 ? run_traced(*workload, opts)
                      : run_timed(*workload, opts);
  } catch (const std::exception& e) {
    std::cerr << "perf_bench: " << e.what() << "\n";
    return 1;
  }
}
