#pragma once

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <type_traits>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "runtime/run_reporter.hpp"
#include "runtime/thread_pool.hpp"

namespace pushpull::exp {

/// Execution knobs for a parameter sweep. Like ReplicateOptions, none of
/// these change the numbers — grid points are evaluated independently and
/// collected in grid order for any worker count.
struct SweepOptions {
  /// 1 = serial on the calling thread, 0 = one worker per hardware thread,
  /// N = N workers (clamped to the number of grid points).
  std::size_t jobs = 1;
  /// Optional JSONL progress sink (one line per finished grid point).
  runtime::RunReporter* reporter = nullptr;
  /// Label stamped on the reporter's run_start/run_end lines. Must outlive
  /// the sweep call (string literals do).
  std::string_view label = "sweep";
};

/// Evaluates `fn(i)` for every grid point i in [0, num_points) — each point
/// typically one full simulation — and returns the results in grid order.
/// It is the one fan-out of the experiment layer: the figures' grids and
/// the replications of replicate_hybrid and run_chaos all run through it.
///
/// `fn` must derive any randomness from its point index (not shared
/// mutable state), may be invoked from multiple threads at once, and
/// whatever it returns is collected by index, so a sweep's output is
/// independent of `options.jobs`. Exceptions from a grid point abort the
/// sweep with the lowest-indexed failure.
template <typename Fn>
[[nodiscard]] auto sweep(std::size_t num_points, Fn&& fn,
                         const SweepOptions& options = {})
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using T = std::invoke_result_t<Fn&, std::size_t>;
  std::size_t jobs = options.jobs == 0
                         ? runtime::ThreadPool::default_concurrency()
                         : options.jobs;
  jobs = std::min(jobs, std::max<std::size_t>(num_points, 1));

  const runtime::StopWatch watch;
  if (options.reporter) {
    options.reporter->run_started(options.label, num_points, jobs);
  }
  std::vector<T> results;
  if (jobs <= 1) {
    results = runtime::serial_map(num_points, fn, options.reporter);
  } else {
    runtime::ThreadPool pool(jobs);
    results = runtime::parallel_map(pool, num_points, fn, options.reporter);
  }
  if (options.reporter) {
    options.reporter->run_finished(options.label, num_points,
                                   watch.elapsed_ms());
  }
  return results;
}

}  // namespace pushpull::exp
