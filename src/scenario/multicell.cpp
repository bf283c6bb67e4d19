#include "scenario/multicell.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "airindex/one_m_index.hpp"
#include "core/hybrid_server.hpp"
#include "workload/trace.hpp"

namespace pushpull::scenario {

MulticellResult run_multicell(const catalog::Catalog& cat,
                              const workload::ClientPopulation& pop,
                              const ShapedTrace& shaped,
                              const MulticellConfig& config) {
  if (config.cells == 0) {
    throw std::invalid_argument("run_multicell: cells must be >= 1");
  }
  const auto requests = shaped.trace.requests();
  const bool routed = !shaped.cell.empty();
  if (routed && shaped.cell.size() != requests.size()) {
    throw std::invalid_argument(
        "run_multicell: shaped.cell must be empty or match the trace size");
  }

  // Split by serving cell; each slice keeps global arrival order, so every
  // per-cell engine sees a sorted trace.
  std::vector<std::vector<workload::Request>> slices(config.cells);
  std::vector<std::uint64_t> inbound(config.cells, 0);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::size_t c = 0;
    if (routed) {
      c = shaped.cell[i];
      if (c >= config.cells) {
        throw std::invalid_argument("run_multicell: request " +
                                    std::to_string(requests[i].id) +
                                    " routed to cell out of range");
      }
      if (shaped.home[i] != shaped.cell[i]) ++inbound[c];
    }
    slices[c].push_back(requests[i]);
  }

  MulticellResult out;
  out.cells.reserve(config.cells);
  out.per_class.assign(pop.num_classes(), metrics::ClassStats{});
  for (std::size_t c = 0; c < config.cells; ++c) {
    CellOutcome cell;
    cell.offered = slices[c].size();
    cell.inbound_handoffs = inbound[c];
    if (slices[c].empty()) {
      cell.result.per_class.assign(pop.num_classes(), metrics::ClassStats{});
    } else {
      core::HybridServer server(cat, pop, config.channel);
      cell.result = server.run(workload::Trace(std::move(slices[c])));
    }
    if (config.channel.cutoff >= 1 && config.index_airtime > 0.0) {
      airindex::OneMIndexModel probe(cat, config.channel.cutoff,
                                     config.index_airtime, 1);
      cell.index_m = airindex::OneMIndexModel::optimal_m(
          probe.data_airtime(), config.index_airtime);
      airindex::OneMIndexModel model(cat, config.channel.cutoff,
                                     config.index_airtime, cell.index_m);
      cell.indexed_access = model.expected_access_time();
      cell.unindexed_access = model.unindexed_access_time();
      cell.tuning = model.expected_tuning_time();
    }
    for (std::size_t k = 0; k < out.per_class.size(); ++k) {
      out.per_class[k].merge_counters(cell.result.per_class[k]);
    }
    out.offered += cell.offered;
    out.handoffs += cell.inbound_handoffs;
    out.cells.push_back(std::move(cell));
  }
  return out;
}

}  // namespace pushpull::scenario
