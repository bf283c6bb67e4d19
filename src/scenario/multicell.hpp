#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "catalog/catalog.hpp"
#include "core/config.hpp"
#include "core/result.hpp"
#include "metrics/class_stats.hpp"
#include "scenario/shaper.hpp"
#include "workload/population.hpp"

namespace pushpull::scenario {

/// A small cellular deployment: `cells` independent hybrid servers, each
/// serving the shaped requests homed (or re-homed) to it.
struct MulticellConfig {
  std::size_t cells = 2;
  /// Each cell's server; by default a dedicated broadcast channel plus one
  /// pull channel.
  core::HybridConfig channel = [] {
    core::HybridConfig config;
    config.pull_channels = 1;
    return config;
  }();
  /// Airtime of one (1, m) index copy for the per-cell energy score; the
  /// number of copies is chosen per cell via OneMIndexModel::optimal_m.
  double index_airtime = 1.0;
};

/// Per-cell outcome: engine counters plus the cell's (1, m) air-index
/// energy score at the optimal m for its push set.
struct CellOutcome {
  core::SimResult result;
  std::uint64_t offered = 0;          ///< requests served by this cell
  std::uint64_t inbound_handoffs = 0; ///< requests whose home was elsewhere
  std::size_t index_m = 0;            ///< m* used for the energy score
  double indexed_access = 0.0;
  double unindexed_access = 0.0;
  double tuning = 0.0;
};

/// Deployment-wide outcome with counters pooled across cells in cell
/// order (quantiles are per-cell only; see metrics::ClassStats::merge_counters).
struct MulticellResult {
  std::vector<CellOutcome> cells;
  std::vector<metrics::ClassStats> per_class;
  std::uint64_t offered = 0;
  std::uint64_t handoffs = 0;  ///< total inbound handoffs across cells

  [[nodiscard]] metrics::ClassStats overall() const {
    metrics::ClassStats total;
    for (const auto& s : per_class) total.merge_counters(s);
    return total;
  }
};

/// Runs a shaped trace across `config.cells` independent cells: the trace
/// is split by ShapedTrace::cell (everything lands in cell 0 when the
/// shaper ran single-cell), each slice replays through its own
/// core::HybridServer, and the per-class counters merge in cell
/// order — deterministic because the split preserves arrival order and
/// every engine is seeded by its own trace slice alone.
///
/// Requires shaped.cell to be empty (single-cell) or sized to the trace.
/// Throws std::invalid_argument on a malformed shaped trace or a cell id
/// out of range.
[[nodiscard]] MulticellResult run_multicell(
    const catalog::Catalog& cat, const workload::ClientPopulation& pop,
    const ShapedTrace& shaped, const MulticellConfig& config);

}  // namespace pushpull::scenario
