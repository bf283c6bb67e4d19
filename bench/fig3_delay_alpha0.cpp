// F3 — Figure 3: per-class expected delay vs. cutoff point K at α = 0
// (pure priority selection), for every access skew θ in the paper's grid.
//
// Paper claims to check: delay is worst at small K; Class-A stays the
// fastest class, Class-C the slowest; the bands separate clearly at α = 0.
#include <iostream>

#include "bench_common.hpp"
#include "metrics/float_compare.hpp"

int main(int argc, char** argv) {
  using namespace pushpull;
  std::string plot_prefix;
  const auto opts = bench::parse_options(argc, argv, nullptr, &plot_prefix);

  std::cout << "# Figure 3 — delay vs cutoff, alpha = 0.0 (priority-only "
               "pull selection)\n";
  exp::Table table({"theta", "K", "delay A", "delay B", "delay C", "overall"});
  exp::PlotSpec plot;
  plot.title = "Fig. 3 - delay vs cutoff, alpha = 0 (theta = 0.60)";
  plot.xlabel = "cutoff K";
  plot.ylabel = "mean delay (broadcast units)";
  plot.series = {{"class A", {}}, {"class B", {}}, {"class C", {}}};
  for (double theta : {0.20, 0.60, 1.00, 1.40}) {
    const auto built = bench::paper_scenario(opts, theta).build();
    // All cutoffs of one theta run concurrently against the shared trace;
    // results come back in grid order, so the table is jobs-independent.
    const auto results = exp::sweep(
        std::size(bench::kCutoffGrid),
        [&](std::size_t i) {
          core::HybridConfig config;
          config.cutoff = bench::kCutoffGrid[i];
          config.alpha = 0.0;
          return exp::run_hybrid(built, config);
        },
        bench::sweep_options(opts, "fig3"));
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::size_t k = bench::kCutoffGrid[i];
      const core::SimResult& r = results[i];
      table.row()
          .add(theta, 2)
          .add(k)
          .add(r.mean_wait(0), 2)
          .add(r.mean_wait(1), 2)
          .add(r.mean_wait(2), 2)
          .add(r.overall().wait.mean(), 2);
      // Grid values come from the same literal list, so bit-exact match
      // is the right selector (approved helper, detlint D4).
      if (metrics::exactly_equal(theta, 0.60)) {
        const auto x = static_cast<double>(k);
        plot.series[0].points.emplace_back(x, r.mean_wait(0));
        plot.series[1].points.emplace_back(x, r.mean_wait(1));
        plot.series[2].points.emplace_back(x, r.mean_wait(2));
      }
    }
  }
  bench::emit(table, opts);
  if (!plot_prefix.empty()) {
    exp::write_gnuplot(plot_prefix, plot);
    std::cout << "# wrote " << plot_prefix << ".dat/.gp\n";
  }
  return 0;
}
