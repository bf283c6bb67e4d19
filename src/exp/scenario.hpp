#pragma once

#include <cstddef>
#include <cstdint>

#include "catalog/catalog.hpp"
#include "core/config.hpp"
#include "core/hybrid_server.hpp"
#include "core/result.hpp"
#include "scenario/presets.hpp"
#include "scenario/shaper.hpp"
#include "workload/population.hpp"
#include "workload/trace.hpp"

namespace pushpull::exp {

/// The paper's §5.1 simulation setup in one value: D = 100 items, Zipf(θ)
/// popularities, lengths 1..5 with mean 2, aggregate Poisson arrivals at
/// λ' = 5, and three service classes A/B/C with priorities 3:2:1 and
/// Zipf-distributed populations (fewest Class-A clients).
///
/// `build()` materializes the catalog, population and a recorded request
/// trace; the same Scenario value always builds the same workload, and
/// sweeps that vary only the scheduler configuration replay the identical
/// trace (paired comparisons).
struct Scenario {
  std::size_t num_items = 100;
  double theta = 0.60;
  double arrival_rate = 5.0;
  std::size_t num_classes = 3;
  double class_zipf_theta = 1.0;
  std::uint32_t min_length = 1;
  std::uint32_t max_length = 5;
  double mean_length = 2.0;
  std::uint64_t seed = 20050614;  // ICPP 2005 vintage
  std::size_t num_requests = 100000;
  /// Worker threads of the replication harnesses (exp::replicate_hybrid,
  /// exp::run_chaos): 1 = serial on the calling thread (the default —
  /// libraries opt in), 0 = hardware concurrency, N = N threads. Results
  /// are bit-identical for every value; only wall time changes (each
  /// replication keeps its index-derived seed and results merge in
  /// replication-index order).
  std::size_t jobs = 1;
  /// Environment timeline applied to the recorded trace (kNone = the
  /// stationary workload, bit-identical to pre-scenario builds — shaping
  /// draws no RNG, so the generator streams are untouched either way).
  pushpull::scenario::Preset preset = pushpull::scenario::Preset::kNone;
  /// How far the preset departs from the stationary baseline (1.0 =
  /// nominal); must be positive finite when a preset is active.
  double preset_intensity = 1.0;

  /// Materialized workload for a scenario.
  struct Built {
    catalog::Catalog catalog;
    workload::ClientPopulation population;
    workload::Trace trace;
    /// Shaping audit (inactive when preset == kNone); feeds the
    /// conservation-across-handoff invariant.
    pushpull::scenario::ShapeSummary shape;
  };

  /// Rejects unusable parameter combinations (zero counts, non-positive
  /// arrival rate, zero-length items, max_length < min_length, non-finite
  /// theta) with a std::invalid_argument naming the offending field.
  /// build() calls this first, so a bad scenario fails before any work.
  void validate() const;

  [[nodiscard]] Built build() const;

  /// The catalog and population build() materializes, without recording a
  /// trace (the analytic model needs nothing else). Neither validates;
  /// call validate() first.
  [[nodiscard]] catalog::Catalog build_catalog() const;
  [[nodiscard]] workload::ClientPopulation build_population() const;
};

/// Runs the hybrid server for one configuration over a built scenario.
[[nodiscard]] core::SimResult run_hybrid(const Scenario::Built& built,
                                         const core::HybridConfig& config);

/// A run plus its observability report (empty unless config.obs.enabled).
struct ObservedRun {
  core::SimResult result;
  obs::ObsReport obs;
};

/// Like run_hybrid, but also returns the run's observability report. With
/// observation disabled the simulation output is bit-identical to
/// run_hybrid — observation is write-only.
[[nodiscard]] ObservedRun run_hybrid_observed(const Scenario::Built& built,
                                              const core::HybridConfig& config);

}  // namespace pushpull::exp
