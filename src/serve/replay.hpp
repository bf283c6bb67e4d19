#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "serve/record.hpp"

namespace pushpull::serve {

/// Execution knobs for replay(). Neither changes the numbers: rep r always
/// derives its server seed from its index, and results merge in index
/// order, so any `jobs` value renders the identical report.
struct ReplayOptions {
  /// Server-side replications over the same recorded workload: rep 0 runs
  /// the recorded seed verbatim (the bit-exact bridge back to the live
  /// run); rep r > 0 re-runs the identical trace with a decorrelated
  /// server seed, isolating scheduler-side randomness (bandwidth demands)
  /// from the frozen workload.
  std::size_t reps = 1;
  /// Workers for runtime::sweep: 1 = serial on the calling thread, 0 = one
  /// per hardware thread, N = N workers (clamped to `reps`).
  std::size_t jobs = 1;
};

/// Feeds a recorded live run back through the engine that served it:
/// rebuilds the catalog, population and HybridConfig (the whole failure
/// model included) from the trace header and runs core::HybridServer over
/// the recorded request sequence, draining at the recorded drain_after.
/// The pipeline is a pure function of the file's bytes — replaying the
/// same trace twice is byte-identical, which is what extends the repo's
/// goldens, invariants and obs tooling to live runs. Results come back in
/// rep order.
[[nodiscard]] std::vector<core::SimResult> replay(
    const RecordedRun& run, const ReplayOptions& options = {});

/// Deterministic multi-line rendering of a replay: a header line echoing
/// the recorded config, then per-rep/per-class stat lines in fixed order
/// (obs::render_number throughout). The byte-compare target of the
/// replay-identity tests and CI check.
[[nodiscard]] std::string render_replay_report(
    const RecordedRun& run, const std::vector<core::SimResult>& results);

}  // namespace pushpull::serve
