#pragma once

/// Umbrella header for the execution runtime: bounded thread pool,
/// deterministic ordered fan-out (sweep, over parallel_map / serial_map)
/// and the JSONL progress reporter.
///
/// Determinism contract: every job derives its randomness from its own job
/// index (SplitMix64-hashed seeds), results are collected in job-index
/// order, and aggregation happens only after collection — so the output of
/// a run is a pure function of (inputs, seed, job count = N jobs or 1), and
/// parallel runs are bit-identical to serial ones.

#include "runtime/checkpoint.hpp"      // IWYU pragma: export
#include "runtime/job_result.hpp"      // IWYU pragma: export
#include "runtime/run_reporter.hpp"    // IWYU pragma: export
#include "runtime/sweep.hpp"           // IWYU pragma: export
#include "runtime/thread_pool.hpp"     // IWYU pragma: export
