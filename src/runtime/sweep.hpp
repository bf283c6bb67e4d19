#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/job_result.hpp"
#include "runtime/run_reporter.hpp"
#include "runtime/thread_pool.hpp"

namespace pushpull::runtime {

namespace detail {

/// Runs one indexed job with timing + telemetry, routing the value or the
/// exception into its JobResult slot. Shared by every execution strategy so
/// serial and parallel runs observe identical job semantics.
template <typename T, typename Fn>
void run_job(JobResult<T>& result, Fn& fn, std::size_t index,
             RunReporter* reporter) {
  const StopWatch watch;
  try {
    T value = fn(index);
    // Report BEFORE settling: collect() may return the instant the last
    // slot settles, and every job's telemetry must already be on the wire
    // by then (the caller may tear down the reporter right after).
    if (reporter) reporter->job_finished(index, watch.elapsed_ms(), true);
    result.fulfill(index, std::move(value));
  } catch (const std::exception& e) {
    if (reporter) {
      reporter->job_finished(index, watch.elapsed_ms(), false, e.what());
    }
    result.fail(index, std::current_exception());
  } catch (...) {
    if (reporter) {
      reporter->job_finished(index, watch.elapsed_ms(), false,
                             "unknown exception");
    }
    result.fail(index, std::current_exception());
  }
}

}  // namespace detail

/// Applies `fn(i)` to every i in [0, num_jobs) on the pool and returns the
/// results **in index order** regardless of completion order. Blocks until
/// every job settles; rethrows the lowest-indexed failure. `fn` must be
/// safe to invoke concurrently from multiple threads.
template <typename Fn>
[[nodiscard]] auto parallel_map(ThreadPool& pool, std::size_t num_jobs,
                                Fn&& fn, RunReporter* reporter = nullptr)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using T = std::invoke_result_t<Fn&, std::size_t>;
  JobResult<T> result(num_jobs);
  for (std::size_t i = 0; i < num_jobs; ++i) {
    pool.submit([&result, &fn, i, reporter] {
      detail::run_job(result, fn, i, reporter);
    });
  }
  return result.collect();
}

/// The inline twin of parallel_map: same per-job timing, telemetry and
/// lowest-index error semantics, but runs on the calling thread. This is the
/// `--jobs 1` legacy-serial path; keeping it on the same JobResult plumbing
/// is what guarantees serial and parallel output stay bit-identical.
template <typename Fn>
[[nodiscard]] auto serial_map(std::size_t num_jobs, Fn&& fn,
                              RunReporter* reporter = nullptr)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using T = std::invoke_result_t<Fn&, std::size_t>;
  JobResult<T> result(num_jobs);
  for (std::size_t i = 0; i < num_jobs; ++i) {
    detail::run_job(result, fn, i, reporter);
  }
  return result.collect();
}

/// Execution knobs for a parameter sweep. None of them changes the
/// numbers: grid points are evaluated independently and collected in grid
/// order for any worker count.
struct SweepOptions {
  /// 1 = serial on the calling thread, 0 = one worker per hardware thread,
  /// N = N workers (clamped to the number of grid points).
  std::size_t jobs = 1;
  /// Optional JSONL progress sink (one line per finished grid point).
  RunReporter* reporter = nullptr;
  /// Label stamped on the reporter's run_start/run_end lines. Must outlive
  /// the sweep call (string literals do).
  std::string_view label = "sweep";
};

/// Evaluates `fn(i)` for every grid point i in [0, num_points) — each point
/// typically one full simulation — and returns the results in grid order.
/// It is the repository's one fan-out: the figures' grids, the
/// replications of exp::replicate_hybrid and exp::run_chaos, and the
/// replays of serve::replay all run through it.
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
                         ? ThreadPool::default_concurrency()
                         : options.jobs;
  jobs = std::min(jobs, std::max<std::size_t>(num_points, 1));

  const StopWatch watch;
  if (options.reporter) {
    options.reporter->run_started(options.label, num_points, jobs);
  }
  std::vector<T> results;
  if (jobs <= 1) {
    results = serial_map(num_points, fn, options.reporter);
  } else {
    ThreadPool pool(jobs);
    results = parallel_map(pool, num_points, fn, options.reporter);
  }
  if (options.reporter) {
    options.reporter->run_finished(options.label, num_points,
                                   watch.elapsed_ms());
  }
  return results;
}

}  // namespace pushpull::runtime
