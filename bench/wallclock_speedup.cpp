// P2 — wall-clock speedup of the parallel replication engine.
//
// Runs the same fixed replication sweep twice — serial (--jobs 1) and with
// N workers — verifies the two summaries are bit-identical, and writes
// BENCH_parallel.json so the perf trajectory is tracked across PRs.
//
//   wallclock_speedup [--reps R] [--requests N] [--jobs J] [--out FILE]
//
// Defaults: 20 replications, 8000 requests, J = 4 workers,
// out = BENCH_parallel.json.
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "exp/replication.hpp"
#include "runtime/run_reporter.hpp"

int main(int argc, char** argv) {
  using namespace pushpull;
  std::size_t reps = 20;
  std::size_t jobs = 4;
  std::string out_path = "BENCH_parallel.json";
  exp::Scenario scenario;
  scenario.num_requests = 8000;
  bench::parse_or_exit(argc, argv, [&](const exp::ArgParser& args) {
    reps = args.get_size("reps", reps);
    jobs = args.get_size("jobs", jobs);
    out_path = args.get_string("out", out_path);
    scenario.num_requests = args.get_size("requests", scenario.num_requests);
  });

  core::HybridConfig config;
  config.cutoff = 30;
  config.alpha = 0.5;

  exp::ReplicateOptions serial_opts;
  serial_opts.jobs = 1;
  const runtime::StopWatch serial_watch;
  const auto serial = exp::replicate_hybrid(scenario, config, reps,
                                            serial_opts);
  const double serial_ms = serial_watch.elapsed_ms();

  exp::ReplicateOptions parallel_opts;
  parallel_opts.jobs = jobs;
  const runtime::StopWatch parallel_watch;
  const auto parallel = exp::replicate_hybrid(scenario, config, reps,
                                              parallel_opts);
  const double parallel_ms = parallel_watch.elapsed_ms();

  // Bit-exact comparison: the whole point of the engine is that the worker
  // count is invisible in the numbers.
  const bool identical =
      serial.overall_delay.mean() == parallel.overall_delay.mean() &&
      serial.overall_delay.variance() == parallel.overall_delay.variance() &&
      serial.total_cost.mean() == parallel.total_cost.mean() &&
      serial.blocking.mean() == parallel.blocking.mean() &&
      serial.pull_queue_len.mean() == parallel.pull_queue_len.mean();

  const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  const unsigned hw = std::thread::hardware_concurrency();

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "wallclock_speedup: cannot open " << out_path << "\n";
    return 2;
  }
  out << "{\n"
      << "  \"bench\": \"parallel_replications\",\n"
      << "  \"replications\": " << reps << ",\n"
      << "  \"requests_per_replication\": " << scenario.num_requests << ",\n"
      << "  \"hardware_threads\": " << hw << ",\n"
      << "  \"jobs\": " << jobs << ",\n"
      << "  \"serial_ms\": " << serial_ms << ",\n"
      << "  \"parallel_ms\": " << parallel_ms << ",\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"bit_identical\": " << (identical ? "true" : "false") << "\n"
      << "}\n";

  std::cout << "serial " << serial_ms << " ms, " << jobs << "-worker "
            << parallel_ms << " ms -> speedup " << speedup << "x ("
            << hw << " hardware threads), summaries "
            << (identical ? "bit-identical" : "DIVERGED") << "\n"
            << "wrote " << out_path << "\n";
  return identical ? 0 : 1;
}
