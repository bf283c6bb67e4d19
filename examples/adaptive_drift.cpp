// Adaptive scheduling under drift: the hot items change every epoch (think
// breaking news cycles); a static push set goes stale, while a server with
// the periodic re-optimizer re-learns popularity online and re-picks the
// cutoff. This
// example prints the cutoff trajectory so you can watch it track the drift.
#include <iostream>

#include "core/hybrid_server.hpp"
#include "exp/table.hpp"
#include "workload/drifting_generator.hpp"

int main() {
  using namespace pushpull;

  catalog::Catalog cat(100, 1.0, catalog::LengthModel::paper_default(), 17);
  const auto pop = workload::ClientPopulation::paper_default();

  // The hot set rotates by a third of the catalog every 500 time units.
  workload::DriftingGenerator gen(cat, pop, 5.0, /*epoch=*/500.0,
                                  /*shift=*/33, /*seed=*/17);
  const workload::Trace trace = workload::Trace::record(gen, 40000);

  std::cout << "adaptive_drift — popularity rotates by 33 ranks every 500 "
               "units\n\n";

  // Static server, tuned for epoch 0 and left alone.
  core::HybridConfig static_config;
  static_config.cutoff = 30;
  static_config.alpha = 0.5;
  core::HybridServer fixed(cat, pop, static_config);
  const core::SimResult rs = fixed.run(trace);

  // Re-optimizing server: EWMA popularity estimate, analytic K-scan every
  // 150 units, pending requests migrated across the boundary.
  core::HybridConfig adaptive = static_config;
  adaptive.reoptimize_interval = 150.0;
  adaptive.estimator_half_life = 200.0;
  core::HybridServer dynamic(cat, pop, adaptive);
  const core::SimResult ra = dynamic.run(trace);

  exp::Table compare({"server", "delay A", "delay B", "delay C", "overall",
                      "total cost"});
  compare.row()
      .add("static K=30 (stale)")
      .add(rs.mean_wait(0), 2)
      .add(rs.mean_wait(1), 2)
      .add(rs.mean_wait(2), 2)
      .add(rs.overall().wait.mean(), 2)
      .add(rs.total_prioritized_cost(pop), 2);
  compare.row()
      .add("adaptive")
      .add(ra.mean_wait(0), 2)
      .add(ra.mean_wait(1), 2)
      .add(ra.mean_wait(2), 2)
      .add(ra.overall().wait.mean(), 2)
      .add(ra.total_prioritized_cost(pop), 2);
  compare.print(std::cout);

  std::cout << "\ncutoff trajectory (" << ra.reoptimizations
            << " re-optimizations):\n";
  exp::Table history({"time", "push-set size"});
  // Print every 4th entry to keep the trajectory readable.
  for (std::size_t i = 0; i < ra.cutoff_history.size(); i += 4) {
    history.row()
        .add(ra.cutoff_history[i].first, 0)
        .add(ra.cutoff_history[i].second);
  }
  history.print(std::cout);
  return 0;
}
