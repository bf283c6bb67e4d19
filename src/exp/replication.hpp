#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "exp/scenario.hpp"
#include "metrics/welford.hpp"
#include "obs/config.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/run_reporter.hpp"

namespace pushpull::exp {

/// Across-replication statistics for one experiment configuration: each
/// replication runs the same scenario with an independent seed, and every
/// reported metric carries a mean and a confidence half-width.
struct ReplicationSummary {
  std::size_t replications = 0;
  metrics::Welford overall_delay;
  std::vector<metrics::Welford> class_delay;   // indexed by ClassId
  metrics::Welford total_cost;
  metrics::Welford blocking;                   // overall blocking ratio
  metrics::Welford pull_queue_len;             // time-weighted mean

  /// "mean ± half-width" for a metric at ~95% confidence.
  [[nodiscard]] static double half_width(const metrics::Welford& w) {
    return w.ci_half_width();
  }
};

/// Schema tag of the per-replication checkpoint payload format, stamped
/// into every progress file (RunReporter::run_context) and checked before
/// resuming from one.
inline constexpr std::string_view kReplicationSchema = "rp1";

/// Stable hash of everything that determines replicate_hybrid's numbers:
/// the scenario, the server configuration (including fault and resilience
/// layers) and the replication count. Execution knobs that provably do not
/// change results (worker count) are excluded, so a checkpoint taken at
/// --jobs 4 resumes cleanly at --jobs 1. Used to stamp checkpoint files and
/// to reject a resume against a file from a different experiment.
[[nodiscard]] std::uint64_t replication_fingerprint(
    const Scenario& scenario, const core::HybridConfig& config,
    std::size_t replications);

/// Execution knobs for replicate_hybrid. None of them change the numbers —
/// replications always derive their seeds from their replication index and
/// merge in index order, so the summary is the same for any worker count
/// (`Scenario::jobs`).
struct ReplicateOptions {
  /// Optional JSONL progress sink (one line per finished replication); may
  /// be null. When set, the file starts with a `context` record (schema +
  /// replication_fingerprint) and each replication also records a `payload`
  /// line with its serialized partial, making a killed run resumable.
  runtime::RunReporter* reporter = nullptr;
  /// Optional checkpoint loaded from a previous (killed) run's JSONL:
  /// replications with a stored payload are restored instead of recomputed.
  /// The store's context record (schema + replication_fingerprint) is
  /// verified against this run's inputs first — a checkpoint from a
  /// different scenario, config or replication count is rejected with
  /// std::runtime_error instead of silently splicing wrong results. The
  /// summary is bit-identical to an uninterrupted run for any jobs value.
  const runtime::CheckpointStore* resume = nullptr;
  /// Observability settings applied to every replication (the per-rep seed
  /// derivation is untouched — observation never changes numbers, and the
  /// obs settings are deliberately outside replication_fingerprint, so
  /// checkpoints resume across tracing on/off).
  obs::ObsConfig obs;
  /// When obs.enabled and non-null: receives the merged trace JSONL — a
  /// header line, then each replication's chunk strictly in replication-
  /// index order (every line tagged "rep":N). Byte-identical for every
  /// jobs value, and across --resume: a restored payload carries its
  /// rendered chunk, and a payload from a trace-less run is recomputed
  /// (deterministically identical) rather than spliced without its trace.
  std::ostream* trace_out = nullptr;
};

/// Runs `replications` independent copies of (scenario, config), varying
/// both the workload seed and the server seed, and pools the results.
/// This is how EXPERIMENTS.md distinguishes real effects from seed noise.
/// The replications fan out through runtime::sweep (label "replicate") on
/// `scenario.jobs` workers (default 1 = serial, 0 = one per hardware
/// thread); `options` adds the progress sink, resume and tracing.
[[nodiscard]] ReplicationSummary replicate_hybrid(
    const Scenario& scenario, const core::HybridConfig& config,
    std::size_t replications, const ReplicateOptions& options = {});

}  // namespace pushpull::exp
