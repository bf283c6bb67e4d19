#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/result.hpp"
#include "exp/scenario.hpp"
#include "metrics/class_stats.hpp"
#include "metrics/welford.hpp"
#include "resilience/invariants.hpp"
#include "resilience/overload.hpp"
#include "runtime/run_reporter.hpp"
#include "workload/trace.hpp"

namespace pushpull::exp {

/// Knobs of one chaos/soak run: everything nasty at once — the config's
/// crash schedule and degradation ladder, the fault layer's burst-error
/// channel, plus an arrival-rate spike — replicated N times from one seed.
struct ChaosOptions {
  std::size_t replications = 8;
  /// Arrival-rate spike: arrivals inside [spike_start, spike_start +
  /// spike_duration) are compressed in time by `spike_factor` (a
  /// deterministic time-warp of the recorded trace — no extra RNG draws),
  /// so the instantaneous rate multiplies while the request population
  /// stays identical. 1.0 (or zero duration) disables the spike.
  double spike_factor = 1.0;
  double spike_start = 0.0;
  double spike_duration = 0.0;
  /// When true, rerun replication 0 after the sweep and require a
  /// bit-identical serialized result (the replay invariant).
  bool verify_replay = true;
  /// When positive, the invariant suite additionally requires every class's
  /// maximum inter-service gap to stay within this bound (regular-service
  /// guarantee); 0 disables the check.
  double gap_bound = 0.0;
  /// Optional JSONL progress sink; may be null.
  runtime::RunReporter* reporter = nullptr;
};

/// Pooled outcome of a chaos run plus its machine-verified invariants.
struct ChaosSummary {
  std::size_t replications = 0;
  /// Counters pooled over replications, indexed by ClassId.
  std::vector<metrics::ClassStats> per_class;
  /// Across-replication statistics (one sample per replication).
  metrics::Welford overall_delay;
  metrics::Welford total_cost;
  metrics::Welford goodput;

  std::uint64_t crashes = 0;
  double total_downtime = 0.0;
  /// Scenario-mobility outcomes summed over replications (zero when the
  /// scenario preset is off).
  std::uint64_t handoff_rehomed = 0;
  std::uint64_t handoff_lost = 0;
  std::uint64_t storm_rerequests = 0;
  std::uint64_t largest_storm = 0;
  metrics::Welford recovery_latency;
  std::size_t overload_transitions = 0;
  resilience::OverloadLevel max_overload_level =
      resilience::OverloadLevel::kNormal;

  /// The invariant suite of every replication, pooled; `replay` and
  /// `all_pass()` are what the chaos CLI's exit code reports.
  resilience::InvariantReport invariants;
  /// Result of the bit-identical-replay check (true when skipped).
  bool replay_identical = true;
};

/// Canonical textual digest of a SimResult: every counter and every moment,
/// doubles in hexfloat. Two results are bit-identical iff their digests
/// compare equal — the primitive behind the replay and jobs-independence
/// invariants.
[[nodiscard]] std::string serialize_result(const core::SimResult& result);

/// Deterministic arrival-spike time-warp (see ChaosOptions). Requests keep
/// their ids, items and classes; only arrival instants move, and order is
/// preserved.
[[nodiscard]] workload::Trace apply_arrival_spike(const workload::Trace& trace,
                                                  double start,
                                                  double duration,
                                                  double factor);

/// Runs the chaos harness: `options.replications` independent replications
/// of (scenario, config) with the spike applied, pooling results and
/// running the invariant suite on every replication. The replications fan
/// out through runtime::sweep (label "chaos") on `scenario.jobs` workers;
/// the numbers never depend on it, since seeds derive from the replication
/// index and results merge in index order.
[[nodiscard]] ChaosSummary run_chaos(const Scenario& scenario,
                                     const core::HybridConfig& config,
                                     const ChaosOptions& options);

}  // namespace pushpull::exp
