// X3 — adaptive cutoff re-optimization under popularity drift (the paper's
// "periodically the algorithm is executed for different cutoff-points",
// exercised on a workload where the hot set actually moves).
//
// Sweeps the drift speed (epoch length; shorter = faster drift) and
// compares a static rank-prefix cutoff against the re-optimizing server
// (HybridConfig::reoptimize_interval) that re-learns popularity online. Expected shape: roughly even on stationary
// workloads, adaptive increasingly ahead as drift accelerates.
#include <iostream>

#include "bench_common.hpp"
#include "core/hybrid_server.hpp"
#include "workload/drifting_generator.hpp"

int main(int argc, char** argv) {
  using namespace pushpull;
  const auto opts = bench::parse_options(argc, argv);

  std::cout << "# Adaptive vs static cutoff under popularity drift "
               "(theta = 1.0, shift = D/3 per epoch)\n";
  catalog::Catalog cat(100, 1.0, catalog::LengthModel::paper_default(),
                       opts.seed);
  const auto pop = workload::ClientPopulation::paper_default();

  exp::Table table({"epoch len", "static delay", "adaptive delay",
                    "improvement %", "reopts", "static cost",
                    "adaptive cost"});
  for (double epoch : {1e9, 2000.0, 800.0, 400.0, 200.0}) {
    workload::DriftingGenerator gen(cat, pop, 5.0, epoch, 33, opts.seed);
    const workload::Trace trace =
        workload::Trace::record(gen, opts.num_requests / 2);

    core::HybridConfig static_config;
    static_config.cutoff = 30;
    static_config.alpha = 0.5;
    core::HybridServer fixed(cat, pop, static_config);
    const core::SimResult rs = fixed.run(trace);

    core::HybridConfig adaptive = static_config;
    adaptive.reoptimize_interval = 100.0;
    adaptive.estimator_half_life = 150.0;
    core::HybridServer dynamic(cat, pop, adaptive);
    const core::SimResult ra = dynamic.run(trace);

    const double sd = rs.overall().wait.mean();
    const double ad = ra.overall().wait.mean();
    table.row()
        .add(epoch >= 1e9 ? std::string("stationary") : std::to_string(static_cast<int>(epoch)))
        .add(sd, 2)
        .add(ad, 2)
        .add(100.0 * (sd - ad) / sd, 1)
        .add(static_cast<std::size_t>(ra.reoptimizations))
        .add(rs.total_prioritized_cost(pop), 2)
        .add(ra.total_prioritized_cost(pop), 2);
  }
  bench::emit(table, opts);
  return 0;
}
