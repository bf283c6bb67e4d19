// X9 — closed-loop population scaling: the paper's finite-C client model.
// Open-loop Poisson load either under- or over-runs the channel; a closed
// loop self-limits, so throughput saturates at the channel capacity and
// delay grows smoothly with C. This bench sweeps the population size and
// reports throughput, per-class delay and the premium advantage.
#include <iostream>

#include "bench_common.hpp"
#include "core/hybrid_server.hpp"

int main(int argc, char** argv) {
  using namespace pushpull;
  const auto opts = bench::parse_options(argc, argv);

  std::cout << "# Closed-loop population sweep, theta = 0.60, K = 15, "
               "alpha = 0.25, think rate 0.05\n";
  catalog::Catalog cat(100, 0.60, catalog::LengthModel::paper_default(),
                       opts.seed);
  const auto pop = workload::ClientPopulation::paper_default();

  exp::Table table({"clients", "throughput", "delay A", "delay B", "delay C",
                    "A/C ratio"});
  for (std::size_t clients : {std::size_t{10}, std::size_t{25},
                              std::size_t{50}, std::size_t{100},
                              std::size_t{200}, std::size_t{400}}) {
    core::HybridConfig config;
    config.cutoff = 15;
    config.alpha = 0.25;
    config.warmup_fraction = 0.1;
    config.seed = opts.seed;
    core::ClosedLoop loop;
    loop.clients = clients;
    loop.think_rate = 0.05;
    loop.horizon = 20000.0;
    core::HybridServer server(cat, pop, config);
    const core::SimResult r = server.run(loop);
    const double a = r.mean_wait(0);
    const double c = r.mean_wait(2);
    table.row()
        .add(clients)
        .add(r.throughput, 3)
        .add(a, 2)
        .add(r.mean_wait(1), 2)
        .add(c, 2)
        .add(c > 0.0 ? a / c : 1.0, 3);
  }
  bench::emit(table, opts);
  return 0;
}
