#include "exp/scenario.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "catalog/length_model.hpp"
#include "rng/splitmix64.hpp"
#include "scenario/timeline.hpp"
#include "workload/request_generator.hpp"

namespace pushpull::exp {

void Scenario::validate() const {
  if (num_items == 0) {
    throw std::invalid_argument("Scenario: num_items must be >= 1");
  }
  if (num_classes == 0) {
    throw std::invalid_argument("Scenario: num_classes must be >= 1");
  }
  if (num_requests == 0) {
    throw std::invalid_argument("Scenario: num_requests must be >= 1");
  }
  if (!(arrival_rate > 0.0) || !std::isfinite(arrival_rate)) {
    throw std::invalid_argument(
        "Scenario: arrival_rate must be a positive finite number, got " +
        std::to_string(arrival_rate));
  }
  if (min_length == 0) {
    throw std::invalid_argument(
        "Scenario: min_length must be >= 1 (zero-length items never finish "
        "transmitting)");
  }
  if (max_length < min_length) {
    throw std::invalid_argument(
        "Scenario: max_length (" + std::to_string(max_length) +
        ") must be >= min_length (" + std::to_string(min_length) + ")");
  }
  if (!(theta >= 0.0) || !std::isfinite(theta)) {
    throw std::invalid_argument(
        "Scenario: theta must be a non-negative finite number");
  }
  if (preset != pushpull::scenario::Preset::kNone &&
      (!(preset_intensity > 0.0) || !std::isfinite(preset_intensity))) {
    throw std::invalid_argument(
        "Scenario: preset_intensity must be a positive finite number when a "
        "scenario preset is active");
  }
}

catalog::Catalog Scenario::build_catalog() const {
  catalog::LengthModel lengths(min_length, max_length, mean_length);
  return catalog::Catalog(num_items, theta, lengths, seed);
}

workload::ClientPopulation Scenario::build_population() const {
  return workload::ClientPopulation::zipf_classes(num_classes,
                                                  class_zipf_theta);
}

Scenario::Built Scenario::build() const {
  validate();
  catalog::Catalog cat = build_catalog();
  workload::ClientPopulation pop = build_population();
  workload::RequestGenerator gen(cat, pop, arrival_rate, seed);
  workload::Trace trace = workload::Trace::record(gen, num_requests);
  pushpull::scenario::ShapeSummary shape;
  if (preset != pushpull::scenario::Preset::kNone) {
    const pushpull::scenario::Timeline timeline =
        pushpull::scenario::make_timeline(preset, preset_intensity,
                                          trace.span(), num_items);
    // Shaping is seeded from the scenario seed on its own hash chain so the
    // handoff draws are independent of the generator streams. The trace is
    // moved in and shaped in its own buffer, so the build holds one trace.
    pushpull::scenario::ShapedTrace shaped = pushpull::scenario::shape_trace(
        std::move(trace), timeline, rng::SplitMix64::mix(seed ^ 0x5EEDCAFEULL),
        num_items, num_classes);
    trace = std::move(shaped.trace);
    shape = std::move(shaped.summary);
  }
  return Built{std::move(cat), std::move(pop), std::move(trace),
               std::move(shape)};
}

core::SimResult run_hybrid(const Scenario::Built& built,
                           const core::HybridConfig& config) {
  core::HybridServer server(built.catalog, built.population, config);
  return server.run(built.trace);
}

ObservedRun run_hybrid_observed(const Scenario::Built& built,
                                const core::HybridConfig& config) {
  core::HybridServer server(built.catalog, built.population, config);
  ObservedRun run;
  run.result = server.run(built.trace);
  run.obs = server.obs_report();
  return run;
}

}  // namespace pushpull::exp
