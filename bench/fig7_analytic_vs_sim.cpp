// F7 — Figure 7: analytical vs. simulation expected access time across the
// cutoff sweep at θ = 0.60, α = 0.75 (the paper's calibration point).
//
// Three estimators are reported: the simulation, this library's
// self-consistent batching model (queueing::HybridAccessModel::estimate),
// and the paper's Eq. 19 exactly as printed. The paper reports ~10%
// agreement between its analysis and simulation; the model-error column
// makes our agreement auditable per cutoff.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "queueing/access_time.hpp"

int main(int argc, char** argv) {
  using namespace pushpull;
  std::string plot_prefix;
  const auto opts = bench::parse_options(argc, argv, nullptr, &plot_prefix);

  std::cout << "# Figure 7 — analytical vs simulation, theta = 0.60, "
               "alpha = 0.75\n";
  const auto built = bench::paper_scenario(opts, 0.60).build();
  queueing::HybridAccessModel model(built.catalog, built.population, 5.0);

  exp::Table table({"K", "sim delay", "model delay", "model err %",
                    "eq19 (literal)", "sim A", "model A", "sim C", "model C"});
  exp::PlotSpec plot;
  plot.title = "Fig. 7 - analytical vs simulation (theta = 0.60, alpha = 0.75)";
  plot.xlabel = "cutoff K";
  plot.ylabel = "mean delay (broadcast units)";
  plot.series = {{"simulation", {}}, {"model", {}}};
  // The simulations dominate the wall time; the analytic model evaluates
  // per-row below (it is cheap and shares no state with the sweep).
  const auto sims = exp::sweep(
      std::size(bench::kCutoffGrid),
      [&](std::size_t i) {
        core::HybridConfig config;
        config.cutoff = bench::kCutoffGrid[i];
        config.alpha = 0.75;
        return exp::run_hybrid(built, config);
      },
      bench::sweep_options(opts, "fig7"));
  for (std::size_t i = 0; i < sims.size(); ++i) {
    const std::size_t k = bench::kCutoffGrid[i];
    const core::SimResult& sim = sims[i];
    const auto est = model.estimate(k, 0.75);
    const double simulated = sim.overall().wait.mean();
    const double err =
        simulated > 0.0 ? 100.0 * (est.overall - simulated) / simulated : 0.0;
    const double eq19 = model.paper_eq19(k);
    table.row()
        .add(k)
        .add(simulated, 2)
        .add(est.overall, 2)
        .add(err, 1)
        .add(std::isfinite(eq19) ? eq19 : -1.0, 2)
        .add(sim.mean_wait(0), 2)
        .add(est.access_time[0], 2)
        .add(sim.mean_wait(2), 2)
        .add(est.access_time[2], 2);
    plot.series[0].points.emplace_back(static_cast<double>(k), simulated);
    plot.series[1].points.emplace_back(static_cast<double>(k), est.overall);
  }
  bench::emit(table, opts);
  if (!plot_prefix.empty()) {
    exp::write_gnuplot(plot_prefix, plot);
    std::cout << "# wrote " << plot_prefix << ".dat/.gp\n";
  }
  std::cout << "# eq19 (literal) = -1.00 marks cutoffs where the paper's "
               "un-batched Eq. 19 is unstable (infinite).\n";
  return 0;
}
