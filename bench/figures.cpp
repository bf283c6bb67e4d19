// The paper's figures and this repository's ablation, extension and
// degradation studies (DESIGN.md experiment index), one row of kFigures
// each.
//
//   figures NAME [--csv] [--requests N] [--seed S] [--jobs N] [--plot P]
//   figures [--csv] [--requests N] [--seed S] [--jobs N]
//
// The first form prints one figure's table; the second prints every figure
// in index order. Every figure evaluates its grid through runtime::sweep, so
// --jobs N runs N grid points at once; results are collected in grid order
// and the output is the same for any N.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <initializer_list>
#include <iostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "airindex/one_m_index.hpp"
#include "bench_common.hpp"
#include "core/cutoff_optimizer.hpp"
#include "core/hybrid_server.hpp"
#include "exp/plots.hpp"
#include "metrics/float_compare.hpp"
#include "queueing/access_time.hpp"
#include "resilience/overload.hpp"
#include "scenario/presets.hpp"
#include "serve/serve.hpp"
#include "uplink/slotted_aloha.hpp"
#include "workload/bursty_generator.hpp"
#include "workload/cached_generator.hpp"
#include "workload/drifting_generator.hpp"

namespace pushpull::bench {
namespace {

/// What one figure reads from the command line.
struct Run {
  /// num_requests is this figure's trace length: --requests divided by the
  /// figure's divisor.
  BenchOptions opts;
  /// --plot PREFIX; read only by the figures that plot.
  std::string plot;
};

core::HybridConfig at(std::size_t cutoff, double alpha) {
  core::HybridConfig config;
  config.cutoff = cutoff;
  config.alpha = alpha;
  return config;
}

/// Appends the mean delay of each class in `classes`, then the overall mean.
exp::Table& add_delays(exp::Table& table, const core::SimResult& r,
                       std::initializer_list<workload::ClassId> classes) {
  for (const workload::ClassId c : classes) table.add(r.mean_wait(c), 2);
  return table.add(r.overall().wait.mean(), 2);
}

/// Runs `config(i)` over the built scenario for every grid point i.
template <typename Config>
std::vector<core::SimResult> run_grid(const Run& run,
                                      const exp::Scenario::Built& built,
                                      std::size_t points, Config config) {
  return runtime::sweep(
      points,
      [&](std::size_t i) { return exp::run_hybrid(built, config(i)); },
      sweep_options(run.opts));
}

void write_plot(const Run& run, const exp::PlotSpec& plot) {
  if (run.plot.empty()) return;
  exp::write_gnuplot(run.plot, plot);
  std::cout << "# wrote " << run.plot << ".dat/.gp\n";
}

constexpr std::size_t kGrid = std::size(kCutoffGrid);

// --- the paper's figures -------------------------------------------------

/// Figs. 3 and 4: per-class delay vs the cutoff K at one α, for every θ in
/// the paper's grid. Delay is worst at small K, class A stays fastest and
/// C slowest; the bands separate at α = 0 and collapse toward each other at
/// α = 1, where priority leaves the importance factor. Returns the
/// θ = 0.60 class curves, which Fig. 3 plots.
std::vector<exp::PlotSeries> delay_vs_cutoff(const Run& run, double alpha) {
  exp::Table table({"theta", "K", "delay A", "delay B", "delay C", "overall"});
  std::vector<exp::PlotSeries> curves = {
      {"class A", {}}, {"class B", {}}, {"class C", {}}};
  for (double theta : {0.20, 0.60, 1.00, 1.40}) {
    const auto built = paper_scenario(run.opts, theta).build();
    const auto results = run_grid(run, built, kGrid, [&](std::size_t i) {
      return at(kCutoffGrid[i], alpha);
    });
    for (std::size_t i = 0; i < kGrid; ++i) {
      const std::size_t k = kCutoffGrid[i];
      const core::SimResult& r = results[i];
      add_delays(table.row().add(theta, 2).add(k), r, {0, 1, 2});
      // Grid values come from the same literal list, so bit-exact match
      // is the right selector (approved helper, detlint D4).
      if (metrics::exactly_equal(theta, 0.60)) {
        for (workload::ClassId c = 0; c < 3; ++c) {
          curves[c].points.emplace_back(static_cast<double>(k),
                                        r.mean_wait(c));
        }
      }
    }
  }
  emit(table, run.opts);
  return curves;
}

void fig3(const Run& run) {
  std::cout << "# Figure 3 — delay vs cutoff, alpha = 0.0 (priority-only "
               "pull selection)\n";
  exp::PlotSpec plot;
  plot.title = "Fig. 3 - delay vs cutoff, alpha = 0 (theta = 0.60)";
  plot.xlabel = "cutoff K";
  plot.ylabel = "mean delay (broadcast units)";
  plot.series = delay_vs_cutoff(run, 0.0);
  write_plot(run, plot);
}

void fig4(const Run& run) {
  std::cout << "# Figure 4 — delay vs cutoff, alpha = 1.0 (stretch-only "
               "pull selection)\n";
  delay_vs_cutoff(run, 1.0);
}

/// The Figs. 3–4 family at the intermediate α the paper also ran, θ = 0.60:
/// the class separation shrinks smoothly as α moves from priority (0)
/// toward stretch (1).
void fig34(const Run& run) {
  std::cout << "# Figures 3-4 family — delay vs cutoff for intermediate "
               "alpha, theta = 0.60\n";
  exp::Table table({"alpha", "K", "delay A", "delay B", "delay C", "overall",
                    "A/C ratio"});
  const auto built = paper_scenario(run.opts, 0.60).build();
  const double alphas[] = {0.25, 0.50, 0.75};
  // Alpha-major, cutoff-minor point index.
  const auto results =
      run_grid(run, built, std::size(alphas) * kGrid, [&](std::size_t i) {
        return at(kCutoffGrid[i % kGrid], alphas[i / kGrid]);
      });
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::SimResult& r = results[i];
    const double a = r.mean_wait(0);
    const double c = r.mean_wait(2);
    add_delays(
        table.row().add(alphas[i / kGrid], 2).add(kCutoffGrid[i % kGrid]), r,
        {0, 1, 2})
        .add(c > 0.0 ? a / c : 1.0, 3);
  }
  emit(table, run.opts);
}

/// Fig. 5: prioritized cost (q_j × expected delay) vs the cutoff for each
/// class, θ = 0.60. The operative output is the interior cutoff K* that
/// minimizes the total prioritized cost.
void fig5(const Run& run) {
  std::cout << "# Figure 5 — prioritized cost vs cutoff, theta = 0.60\n";
  const auto built = paper_scenario(run.opts, 0.60).build();
  const auto& pop = built.population;
  exp::Table table({"alpha", "K", "cost A", "cost B", "cost C", "total cost"});
  for (double alpha : {0.25, 0.75}) {
    const auto results = run_grid(run, built, kGrid, [&](std::size_t i) {
      return at(kCutoffGrid[i], alpha);
    });
    std::size_t best_k = 0;
    double best_cost = 0.0;
    for (std::size_t i = 0; i < kGrid; ++i) {
      const core::SimResult& r = results[i];
      const double total = r.total_prioritized_cost(pop);
      table.row()
          .add(alpha, 2)
          .add(kCutoffGrid[i])
          .add(r.prioritized_cost(pop, 0), 2)
          .add(r.prioritized_cost(pop, 1), 2)
          .add(r.prioritized_cost(pop, 2), 2)
          .add(total, 2);
      if (i == 0 || total < best_cost) {
        best_cost = total;
        best_k = kCutoffGrid[i];
      }
    }
    std::cout << "# alpha = " << alpha << ": optimal cutoff K* = " << best_k
              << " with total prioritized cost " << best_cost << "\n";
  }
  emit(table, run.opts);
}

/// Fig. 6: the total optimal prioritized cost vs α. For every (θ, α) the
/// cutoff is re-optimized (the paper's periodic K-scan). The paper's claim:
/// the optimal cost falls as α decreases, i.e. as the importance factor
/// weighs client priority more.
void fig6(const Run& run) {
  std::cout << "# Figure 6 — total optimal prioritized cost vs alpha\n";
  exp::Table table({"theta", "alpha", "K*", "optimal total cost"});
  const double alphas[] = {0.0, 0.25, 0.50, 0.75, 1.0};
  for (double theta : {0.20, 0.60, 1.40}) {
    const auto built = paper_scenario(run.opts, theta).build();
    // Each grid point is a full cutoff scan (10 simulations).
    const auto scans = runtime::sweep(
        std::size(alphas),
        [&](std::size_t i) {
          return core::scan_cutoffs(5, 100, 10, [&](std::size_t k) {
            return exp::run_hybrid(built, at(k, alphas[i]))
                .total_prioritized_cost(built.population);
          });
        },
        sweep_options(run.opts));
    for (std::size_t i = 0; i < scans.size(); ++i) {
      table.row()
          .add(theta, 2)
          .add(alphas[i], 2)
          .add(scans[i].best_cutoff)
          .add(scans[i].best_cost, 2);
    }
  }
  emit(table, run.opts);
}

/// Fig. 7: analytical vs simulated access time across the cutoff sweep at
/// the paper's calibration point. Three estimators: the simulation, the
/// self-consistent batching model (queueing::HybridAccessModel::estimate)
/// and the paper's Eq. 19 as printed. The paper reports ~10% agreement; the
/// model-error column makes ours auditable per cutoff.
void fig7(const Run& run) {
  std::cout << "# Figure 7 — analytical vs simulation, theta = 0.60, "
               "alpha = 0.75\n";
  const auto built = paper_scenario(run.opts, 0.60).build();
  queueing::HybridAccessModel model(built.catalog, built.population, 5.0);

  exp::Table table({"K", "sim delay", "model delay", "model err %",
                    "eq19 (literal)", "sim A", "model A", "sim C", "model C"});
  exp::PlotSpec plot;
  plot.title = "Fig. 7 - analytical vs simulation (theta = 0.60, alpha = 0.75)";
  plot.xlabel = "cutoff K";
  plot.ylabel = "mean delay (broadcast units)";
  plot.series = {{"simulation", {}}, {"model", {}}};
  const auto sims = run_grid(run, built, kGrid, [&](std::size_t i) {
    return at(kCutoffGrid[i], 0.75);
  });
  for (std::size_t i = 0; i < kGrid; ++i) {
    const std::size_t k = kCutoffGrid[i];
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
  emit(table, run.opts);
  write_plot(run, plot);
  std::cout << "# eq19 (literal) = -1.00 marks cutoffs where the paper's "
               "un-batched Eq. 19 is unstable (infinite).\n";
}

/// The abstract's claim that premium blocking can be driven toward zero by
/// giving the class "an appropriate fraction of available bandwidth", while
/// lower classes absorb the loss.
void blocking_bandwidth(const Run& run) {
  std::cout << "# Blocking vs premium bandwidth share, theta = 0.60, "
               "K = 10, total bandwidth = 5, mean demand = 2\n";
  const auto built = paper_scenario(run.opts, 0.60).build();
  exp::Table table({"A share", "block A", "block B", "block C",
                    "blocked total", "served total"});
  const double shares[] = {0.10, 0.20, 1.0 / 3.0, 0.50, 0.70, 0.85};
  const auto results =
      run_grid(run, built, std::size(shares), [&](std::size_t i) {
        core::HybridConfig config = at(10, 0.0);
        config.total_bandwidth = 5.0;
        config.mean_bandwidth_demand = 2.0;
        const double rest = (1.0 - shares[i]) / 2.0;
        config.bandwidth_fractions = {shares[i], rest, rest};
        return config;
      });
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::SimResult& r = results[i];
    table.row()
        .add(shares[i], 2)
        .add(r.per_class[0].blocking_ratio(), 4)
        .add(r.per_class[1].blocking_ratio(), 4)
        .add(r.per_class[2].blocking_ratio(), 4)
        .add(static_cast<std::size_t>(r.overall().blocked))
        .add(static_cast<std::size_t>(r.overall().served));
  }
  emit(table, run.opts);
}

// --- ablations -----------------------------------------------------------

/// The importance-factor policy against every other pull discipline on the
/// same trace: it pays in premium delay and total prioritized cost, at the
/// price of slightly worse aggregate stretch.
void pull_policies(const Run& run) {
  std::cout << "# Pull-policy ablation, theta = 0.60, K = 20, alpha = 0.5 "
               "(importance policies)\n";
  const auto built = paper_scenario(run.opts, 0.60).build();
  exp::Table table({"policy", "delay A", "delay B", "delay C", "overall",
                    "total cost", "pull tx"});
  const sched::PullPolicyKind kinds[] = {
      sched::PullPolicyKind::kFcfs,       sched::PullPolicyKind::kMrf,
      sched::PullPolicyKind::kStretch,    sched::PullPolicyKind::kPriority,
      sched::PullPolicyKind::kRxw,        sched::PullPolicyKind::kLwf,
      sched::PullPolicyKind::kImportance,
      sched::PullPolicyKind::kImportanceQueueAware};
  const auto results =
      run_grid(run, built, std::size(kinds), [&](std::size_t i) {
        core::HybridConfig config = at(20, 0.5);
        config.pull_policy = kinds[i];
        return config;
      });
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::SimResult& r = results[i];
    add_delays(table.row().add(std::string(sched::to_string(kinds[i]))), r,
               {0, 1, 2})
        .add(r.total_prioritized_cost(built.population), 2)
        .add(static_cast<std::size_t>(r.pull_transmissions));
  }
  emit(table, run.opts);
}

/// The paper's flat push cycle against the Broadcast Disks and
/// Square-Root-Rule baselines, with the pull side fixed at the importance
/// policy.
void push_policies(const Run& run) {
  std::cout << "# Push-policy ablation, theta = 0.60, alpha = 0.5\n";
  exp::Table table({"push policy", "K", "delay A", "delay C", "overall",
                    "push served", "total cost"});
  const auto built = paper_scenario(run.opts, 0.60).build();
  const std::size_t cutoffs[] = {20, 40, 60};
  constexpr sched::PushPolicyKind kinds[] = {
      sched::PushPolicyKind::kFlat, sched::PushPolicyKind::kBroadcastDisks,
      sched::PushPolicyKind::kSquareRootRule};
  constexpr std::size_t n = std::size(kinds);
  // Cutoff-major, policy-minor point index.
  const auto results =
      run_grid(run, built, std::size(cutoffs) * n, [&](std::size_t i) {
        core::HybridConfig config = at(cutoffs[i / n], 0.5);
        config.push_policy = kinds[i % n];
        return config;
      });
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::SimResult& r = results[i];
    add_delays(table.row()
                   .add(std::string(sched::to_string(kinds[i % n])))
                   .add(cutoffs[i / n]),
               r, {0, 2})
        .add(static_cast<std::size_t>(r.overall().served_push))
        .add(r.total_prioritized_cost(built.population), 2);
  }
  emit(table, run.opts);
}

/// The paper's Eq. 1 importance factor against its Eq. 6 queue-aware
/// generalization, which folds the expected number of queued copies
/// (E[L_pull]·p_i) into both terms, across the α sweep.
void importance_forms(const Run& run) {
  std::cout << "# Importance-factor forms: Eq. 1 vs Eq. 6, theta = 0.60, "
               "K = 20\n";
  const auto built = paper_scenario(run.opts, 0.60).build();
  exp::Table table({"alpha", "form", "delay A", "delay B", "delay C",
                    "overall", "total cost"});
  const double alphas[] = {0.0, 0.25, 0.50, 0.75, 1.0};
  // Alpha-major, form-minor point index: even points Eq. 1, odd Eq. 6.
  const auto results =
      run_grid(run, built, 2 * std::size(alphas), [&](std::size_t i) {
        core::HybridConfig config = at(20, alphas[i / 2]);
        config.pull_policy = i % 2 == 0
                                 ? sched::PullPolicyKind::kImportance
                                 : sched::PullPolicyKind::kImportanceQueueAware;
        return config;
      });
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::SimResult& r = results[i];
    add_delays(table.row()
                   .add(alphas[i / 2], 2)
                   .add(std::string(i % 2 == 0 ? "eq1" : "eq6")),
               r, {0, 1, 2})
        .add(r.total_prioritized_cost(built.population), 2);
  }
  emit(table, run.opts);
}

/// The starvation guard the paper's "un-fairness to the lower priority
/// clients" calls for: linear aging on top of the importance factor. Class
/// C's p99/max tail collapses while class A's mean degrades gradually.
void aging(const Run& run) {
  std::cout << "# Aging ablation, theta = 0.60, K = 10, alpha = 0 (pure "
               "priority — worst case for fairness)\n";
  const auto built = paper_scenario(run.opts, 0.60).build();
  exp::Table table({"aging rate", "mean A", "mean C", "p99 C", "max C",
                    "total cost"});
  const double rates[] = {0.0, 0.05, 0.2, 0.5, 2.0, 10.0};
  const auto results =
      run_grid(run, built, std::size(rates), [&](std::size_t i) {
        core::HybridConfig config = at(10, 0.0);
        config.aging_rate = rates[i];
        return config;
      });
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::SimResult& r = results[i];
    table.row()
        .add(rates[i], 2)
        .add(r.mean_wait(0), 2)
        .add(r.mean_wait(2), 2)
        .add(r.per_class[2].wait_p99.value(), 2)
        .add(r.per_class[2].wait.max(), 2)
        .add(r.total_prioritized_cost(built.population), 2);
  }
  emit(table, run.opts);
}

// --- extensions ----------------------------------------------------------

/// Adaptive cutoff re-optimization (the paper's "periodically the algorithm
/// is executed for different cutoff-points") against a static rank-prefix
/// cutoff on a workload whose hot set moves. Expected: roughly even when
/// stationary, adaptive increasingly ahead as the drift accelerates.
void adaptive_drift(const Run& run) {
  std::cout << "# Adaptive vs static cutoff under popularity drift "
               "(theta = 1.0, shift = D/3 per epoch)\n";
  const exp::Scenario scenario = paper_scenario(run.opts, 1.0);
  const catalog::Catalog cat = scenario.build_catalog();
  const workload::ClientPopulation pop = scenario.build_population();
  exp::Table table({"epoch len", "static delay", "adaptive delay",
                    "improvement %", "reopts", "static cost",
                    "adaptive cost"});
  const double epochs[] = {1e9, 2000.0, 800.0, 400.0, 200.0};
  const auto results = runtime::sweep(
      std::size(epochs),
      [&](std::size_t i) {
        workload::DriftingGenerator gen(cat, pop, 5.0, epochs[i], 33,
                                        run.opts.seed);
        const auto trace =
            workload::Trace::record(gen, run.opts.num_requests);
        const core::HybridConfig fixed = at(30, 0.5);
        core::HybridConfig adaptive = fixed;
        adaptive.reoptimize_interval = 100.0;
        adaptive.estimator_half_life = 150.0;
        return std::pair(core::HybridServer(cat, pop, fixed).run(trace),
                         core::HybridServer(cat, pop, adaptive).run(trace));
      },
      sweep_options(run.opts));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& [rs, ra] = results[i];
    const double sd = rs.overall().wait.mean();
    const double ad = ra.overall().wait.mean();
    table.row()
        .add(epochs[i] >= 1e9 ? std::string("stationary")
                              : std::to_string(static_cast<int>(epochs[i])))
        .add(sd, 2)
        .add(ad, 2)
        .add(100.0 * (sd - ad) / sd, 1)
        .add(static_cast<std::size_t>(ra.reoptimizations))
        .add(rs.total_prioritized_cost(pop), 2)
        .add(ra.total_prioritized_cost(pop), 2);
  }
  emit(table, run.opts);
}

/// How much of the hybrid system's delay is the single-channel alternation
/// constraint: the paper's shared channel against a dedicated broadcast
/// channel plus N pull channels, at the same cutoff on the same trace, with
/// the per-class p99 tails a carrier buys channels for.
void multichannel(const Run& run) {
  std::cout << "# Multi-channel scaling, theta = 0.60, K = 20, alpha = 0.25\n";
  const auto built = paper_scenario(run.opts, 0.60).build();
  // Point 0 is the shared channel; point m dedicates m pull channels.
  const auto results = run_grid(run, built, 5, [&](std::size_t m) {
    core::HybridConfig config = at(20, 0.25);
    config.pull_channels = m;
    return config;
  });
  exp::Table table({"layout", "delay A", "delay C", "overall", "p99 A",
                    "p99 C", "pull ch util"});
  for (std::size_t m = 0; m < results.size(); ++m) {
    const core::SimResult& r = results[m];
    add_delays(table.row().add(m == 0 ? std::string("shared channel (paper)")
                                      : "bcast + " + std::to_string(m) +
                                            " pull ch"),
               r, {0, 2})
        .add(r.per_class[0].wait_p99.value(), 2)
        .add(r.per_class[2].wait_p99.value(), 2);
    if (m == 0) {
      table.add("-");
    } else {
      double util = 0.0;
      for (std::size_t c = 1; c <= m; ++c) util += r.channel_utilization[c];
      table.add(util / static_cast<double>(m), 3);
    }
  }
  emit(table, run.opts);
}

/// Client-side LRU caches: hits never reach the server, so offered load and
/// the surviving requests' delay drop. Caches absorb mostly hot-item
/// demand, so the miss stream is flatter than the catalog's Zipf and at a
/// fixed cutoff the per-request delay can rise as load falls (cache
/// filtering); the K* column is the operator's response, a cutoff
/// re-optimized for the filtered stream.
void client_cache(const Run& run) {
  std::cout << "# Client cache sweep, theta = 0.90, K = 20, alpha = 0.25, "
               "60 clients\n";
  const exp::Scenario scenario = paper_scenario(run.opts, 0.90);
  const catalog::Catalog cat = scenario.build_catalog();
  const workload::ClientPopulation pop = scenario.build_population();
  exp::Table table({"cache cap", "hit ratio", "server load", "delay A",
                    "delay C", "overall", "total cost", "K*", "cost @ K*"});
  const std::size_t capacities[] = {0, 2, 5, 10, 20};
  struct Point {
    double hit_ratio;
    std::size_t misses;
    core::SimResult result;
    core::CutoffScan scan;
  };
  const auto points = runtime::sweep(
      std::size(capacities),
      [&](std::size_t i) {
        workload::CachedRequestGenerator gen(cat, pop, 5.0, std::size_t{60},
                                             capacities[i], run.opts.seed);
        // A fixed demand volume; the miss trace shrinks with capacity.
        std::vector<workload::Request> misses;
        while (gen.demands() < run.opts.num_requests) {
          misses.push_back(gen.next());
        }
        const workload::Trace trace(std::move(misses));
        const auto run_at = [&](std::size_t k) {
          return core::HybridServer(cat, pop, at(k, 0.25)).run(trace);
        };
        return Point{gen.hit_ratio(), trace.size(), run_at(20),
                     core::scan_cutoffs(0, 100, 10, [&](std::size_t k) {
                       return run_at(k).total_prioritized_cost(pop);
                     })};
      },
      sweep_options(run.opts));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    add_delays(table.row()
                   .add(capacities[i])
                   .add(p.hit_ratio, 3)
                   .add(p.misses),
               p.result, {0, 2})
        .add(p.result.total_prioritized_cost(pop), 2)
        .add(p.scan.best_cutoff)
        .add(p.scan.best_cost, 2);
  }
  emit(table, run.opts);
}

struct EndToEnd {
  double cost = 0.0;          // Σ q_c · mean end-to-end delay of class c
  double uplink_delay = 0.0;  // mean uplink delay of pull requests
  double collision_ratio = 0.0;
};

/// Splits the trace at `cutoff`, contends the pull half on the uplink,
/// replays the merged stream, and prices delays from the *generation*
/// instants.
EndToEnd evaluate_uplink(const exp::Scenario::Built& built,
                         std::size_t cutoff,
                         const uplink::AlohaConfig& aloha) {
  // Generation instants by request id (ids are dense in scenario traces).
  std::vector<double> generated(built.trace.size());
  std::vector<workload::Request> push_part;
  std::vector<workload::Request> pull_part;
  for (const auto& r : built.trace.requests()) {
    generated[r.id] = r.arrival;
    (r.item < cutoff ? push_part : pull_part).push_back(r);
  }

  // Only the pull half contends.
  uplink::AlohaResult contended =
      uplink::simulate_uplink(workload::Trace(std::move(pull_part)), aloha);

  // Merge the direct (push) and delayed (pull) streams.
  std::vector<workload::Request> merged = std::move(push_part);
  const auto delayed = contended.delayed_trace.requests();
  merged.insert(merged.end(), delayed.begin(), delayed.end());
  std::sort(merged.begin(), merged.end(),
            [](const workload::Request& a, const workload::Request& b) {
              return a.arrival < b.arrival;
            });

  // The server measures waits from its own arrival instants; add the
  // uplink component per class by re-pricing from generation instants.
  const std::size_t classes = built.population.num_classes();
  std::vector<double> uplink_delay_sum(classes, 0.0);
  std::vector<std::uint64_t> class_count(classes, 0);
  for (const auto& r : built.trace.requests()) ++class_count[r.cls];
  for (const auto& r : delayed) {
    uplink_delay_sum[r.cls] += r.arrival - generated[r.id];
  }

  core::HybridServer server(built.catalog, built.population, at(cutoff, 0.25));
  const core::SimResult result = server.run(workload::Trace(std::move(merged)));

  EndToEnd out;
  out.uplink_delay = contended.mean_uplink_delay;
  out.collision_ratio = contended.collision_ratio();
  for (workload::ClassId c = 0; c < classes; ++c) {
    const double uplink_mean =
        class_count[c] ? uplink_delay_sum[c] /
                             static_cast<double>(class_count[c])
                       : 0.0;
    out.cost +=
        built.population.priority(c) * (result.mean_wait(c) + uplink_mean);
  }
  return out;
}

/// Back-channel contention: pull requests must first win a slotted-ALOHA
/// uplink, push requests need none. A larger push set therefore also thins
/// the uplink for the remaining pulls, and the end-to-end (generation →
/// delivery) optimal cutoff climbs as the back-channel saturates.
void uplink_contention(const Run& run) {
  std::cout << "# Uplink contention (stabilized slotted ALOHA, slot 0.1), "
               "theta = 0.60, alpha = 0.25, end-to-end prioritized cost\n";
  exp::Table table({"rate", "K", "uplink delay", "collision %",
                    "end-to-end cost"});
  const double rates[] = {2.0, 5.0, 8.0};
  const std::size_t cutoffs[] = {0, 20, 40, 60, 80, 100};
  uplink::AlohaConfig aloha;
  aloha.slot_duration = 0.1;
  aloha.retry_probability = 0.1;
  aloha.seed = run.opts.seed;
  const auto curves = runtime::sweep(
      std::size(rates),
      [&](std::size_t i) {
        exp::Scenario scenario = paper_scenario(run.opts, 0.60);
        scenario.arrival_rate = rates[i];
        const auto built = scenario.build();
        std::vector<EndToEnd> curve;
        for (std::size_t k : cutoffs) {
          curve.push_back(evaluate_uplink(built, k, aloha));
        }
        return curve;
      },
      sweep_options(run.opts));
  for (std::size_t i = 0; i < curves.size(); ++i) {
    std::size_t best_k = 0;
    double best_cost = 0.0;
    for (std::size_t j = 0; j < std::size(cutoffs); ++j) {
      const EndToEnd& e2e = curves[i][j];
      table.row()
          .add(rates[i], 1)
          .add(cutoffs[j])
          .add(e2e.uplink_delay, 2)
          .add(100.0 * e2e.collision_ratio, 1)
          .add(e2e.cost, 2);
      if (j == 0 || e2e.cost < best_cost) {
        best_cost = e2e.cost;
        best_k = cutoffs[j];
      }
    }
    std::cout << "# rate " << rates[i] << ": end-to-end optimal cutoff K* = "
              << best_k << " (cost " << best_cost << ")\n";
  }
  emit(table, run.opts);
}

/// (1, m) air indexing on the push broadcast, the energy dimension the
/// paper leaves out: the access/tuning trade over the number of index
/// copies m, the sqrt-law optimum m* and the win over unindexed listening.
void air_indexing(const Run& run) {
  std::cout << "# (1,m) air indexing over the push cycle, theta = 0.60, "
               "K = 40, index airtime = 2\n";
  const catalog::Catalog cat = paper_scenario(run.opts, 0.60).build_catalog();
  const double ix = 2.0;
  const std::size_t m_star =
      airindex::OneMIndexModel::optimal_m(cat.push_cycle_length(40), ix);
  const double unindexed =
      airindex::OneMIndexModel(cat, 40, ix, 1).unindexed_access_time();
  exp::Table table({"m", "access (model)", "access (sim)", "tuning",
                    "tuning/unindexed", "cycle airtime"});
  const std::size_t copies[] = {1, 2, 4, 6, 8, 12, 16};
  const auto points = runtime::sweep(
      std::size(copies),
      [&](std::size_t i) {
        const airindex::OneMIndexModel model(cat, 40, ix, copies[i]);
        return std::pair(model, model.simulate(100000, run.opts.seed));
      },
      sweep_options(run.opts));
  for (const auto& [model, sampled] : points) {
    table.row()
        .add(model.m())
        .add(model.expected_access_time(), 2)
        .add(sampled.access, 2)
        .add(model.expected_tuning_time(), 2)
        .add(model.expected_tuning_time() / unindexed, 3)
        .add(model.cycle_airtime(), 1);
  }
  emit(table, run.opts);
  std::cout << "# unindexed: access = tuning = " << unindexed
            << " broadcast units; sqrt-law optimum m* = " << m_star << "\n";
}

/// The paper assumes Poisson arrivals; real streams arrive in flash crowds.
/// Load-matched compound-Poisson batch sweeps show how much delay the
/// assumption hides and whether the importance policy's lead over FCFS
/// survives burstiness.
void burstiness(const Run& run) {
  std::cout << "# Burstiness sweep (compound Poisson, aggregate rate 5), "
               "theta = 0.60, K = 20, alpha = 0.25\n";
  const exp::Scenario scenario = paper_scenario(run.opts, 0.60);
  const catalog::Catalog cat = scenario.build_catalog();
  const workload::ClientPopulation pop = scenario.build_population();
  exp::Table table({"batch mean", "policy", "delay A", "delay C", "overall",
                    "p99 C", "total cost"});
  const double batches[] = {1.0, 2.0, 4.0, 8.0};
  constexpr sched::PullPolicyKind kinds[] = {
      sched::PullPolicyKind::kImportance, sched::PullPolicyKind::kFcfs};
  const auto results = runtime::sweep(
      std::size(batches),
      [&](std::size_t i) {
        workload::BurstyGenerator gen(cat, pop, 5.0, batches[i],
                                      run.opts.seed);
        const auto trace =
            workload::Trace::record(gen, run.opts.num_requests);
        std::array<core::SimResult, std::size(kinds)> by_kind;
        for (std::size_t j = 0; j < std::size(kinds); ++j) {
          core::HybridConfig config = at(20, 0.25);
          config.pull_policy = kinds[j];
          by_kind[j] = core::HybridServer(cat, pop, config).run(trace);
        }
        return by_kind;
      },
      sweep_options(run.opts));
  for (std::size_t i = 0; i < results.size(); ++i) {
    for (std::size_t j = 0; j < std::size(kinds); ++j) {
      const core::SimResult& r = results[i][j];
      add_delays(table.row()
                     .add(batches[i], 1)
                     .add(std::string(sched::to_string(kinds[j]))),
                 r, {0, 2})
          .add(r.per_class[2].wait_p99.value(), 2)
          .add(r.total_prioritized_cost(pop), 2);
    }
  }
  emit(table, run.opts);
}

/// The paper's finite-C client model. Open-loop Poisson load under- or
/// over-runs the channel; a closed loop self-limits, so throughput
/// saturates at the channel capacity and delay grows smoothly with C.
void closed_loop(const Run& run) {
  std::cout << "# Closed-loop population sweep, theta = 0.60, K = 15, "
               "alpha = 0.25, think rate 0.05\n";
  const exp::Scenario scenario = paper_scenario(run.opts, 0.60);
  const catalog::Catalog cat = scenario.build_catalog();
  const workload::ClientPopulation pop = scenario.build_population();
  exp::Table table({"clients", "throughput", "delay A", "delay B", "delay C",
                    "A/C ratio"});
  const std::size_t clients[] = {10, 25, 50, 100, 200, 400};
  const auto results = runtime::sweep(
      std::size(clients),
      [&](std::size_t i) {
        core::HybridConfig config = at(15, 0.25);
        config.warmup_fraction = 0.1;
        config.seed = run.opts.seed;
        const core::ClosedLoop loop{
            .clients = clients[i], .think_rate = 0.05, .horizon = 20000.0};
        return core::HybridServer(cat, pop, config).run(loop);
      },
      sweep_options(run.opts));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::SimResult& r = results[i];
    const double a = r.mean_wait(0);
    const double c = r.mean_wait(2);
    table.row()
        .add(clients[i])
        .add(r.throughput, 3)
        .add(a, 2)
        .add(r.mean_wait(1), 2)
        .add(c, 2)
        .add(c > 0.0 ? a / c : 1.0, 3);
  }
  emit(table, run.opts);
}

// --- degradation under failure -------------------------------------------

/// R1's burst-error downlink at good→bad probability `p_gb`: K = 40,
/// α = 0.5, recovery probability 0.30, 75% corruption in the bad state,
/// up to 3 retries.
core::HybridConfig burst_errors(double p_gb) {
  core::HybridConfig config = at(40, 0.5);
  config.fault.enabled = true;
  config.fault.channel.p_good_to_bad = p_gb;
  config.fault.channel.p_bad_to_good = 0.30;
  config.fault.channel.corrupt_good = 0.0;
  config.fault.channel.corrupt_bad = 0.75;
  config.fault.retry.max_retries = 3;
  return config;
}

/// R1: graceful degradation under an unreliable downlink, θ = 0.60. The
/// channel sweep raises the Gilbert–Elliott good→bad probability, so the
/// stationary bad-state share grows; the load sweep bounds the pull queue
/// and raises the offered load.
void fault_degradation(const Run& run) {
  const exp::Scenario scenario = paper_scenario(run.opts, 0.60);
  const auto built = scenario.build();
  const double p_gb[] = {0.0, 0.02, 0.05, 0.10, 0.20, 0.40};
  const auto channel =
      run_grid(run, built, std::size(p_gb),
               [&](std::size_t i) { return burst_errors(p_gb[i]); });
  exp::Table channel_table({"p(g->b)", "stationary bad", "delay A", "delay B",
                            "delay C", "goodput A", "goodput B", "goodput C",
                            "lost"});
  for (std::size_t i = 0; i < channel.size(); ++i) {
    const core::SimResult& r = channel[i];
    channel_table.row()
        .add(p_gb[i], 2)
        .add(burst_errors(p_gb[i]).fault.channel.stationary_bad(), 3);
    for (workload::ClassId c = 0; c < 3; ++c) {
      channel_table.add(r.mean_wait(c), 2);
    }
    for (workload::ClassId c = 0; c < 3; ++c) {
      channel_table.add(r.per_class[c].goodput_ratio(), 4);
    }
    channel_table.add(static_cast<std::size_t>(r.overall().lost));
  }
  emit(channel_table, run.opts);

  // Pure pull (K = 0) behind a drop-tail queue of 8 stresses the bound
  // hardest.
  const double rates[] = {2.0, 4.0, 6.0, 8.0, 10.0};
  const auto loaded = runtime::sweep(
      std::size(rates),
      [&](std::size_t i) {
        exp::Scenario s = scenario;
        s.arrival_rate = rates[i];
        core::HybridConfig config = at(0, 0.5);
        config.fault.queue_capacity = 8;
        config.fault.shed_policy = fault::ShedPolicy::kDropTail;
        return exp::run_hybrid(s.build(), config);
      },
      sweep_options(run.opts));
  exp::Table load_table({"rate", "shed", "served", "mean delay"});
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const auto& overall = loaded[i].overall();
    load_table.row()
        .add(rates[i], 1)
        .add(static_cast<std::size_t>(overall.shed))
        .add(static_cast<std::size_t>(overall.served))
        .add(overall.wait.mean(), 2);
  }
  emit(load_table, run.opts);
}

/// R2: prioritized cost and per-class goodput under cold-recovery server
/// crashes, crash rate × {ladder off, ladder on}, θ = 0.60 at offered load
/// 8 so the ladder has something to shed. Every cell replays one trace.
void chaos_resilience(const Run& run) {
  exp::Scenario scenario = paper_scenario(run.opts, 0.60);
  scenario.arrival_rate = 8.0;
  const auto built = scenario.build();
  const double rates[] = {0.0, 0.002, 0.005, 0.01, 0.02};
  constexpr std::size_t n = std::size(rates);
  // Ladder-major, rate-minor point index.
  const auto results = run_grid(run, built, 2 * n, [&](std::size_t i) {
    core::HybridConfig config = at(20, 0.5);
    auto& crash = config.resilience.crash;
    crash.enabled = rates[i % n] > 0.0;
    crash.rate = rates[i % n];
    crash.downtime = 30.0;
    crash.recovery = resilience::RecoveryMode::kCold;
    auto& ladder = config.resilience.overload;
    ladder.enabled = i >= n;
    ladder.eval_interval = 5.0;
    ladder.capacity_ref = 32;
    return config;
  });
  exp::Table table({"crash rate", "ladder", "p-cost", "goodput A",
                    "goodput B", "goodput C", "crashes", "storms",
                    "downtime", "rejected", "max level"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::SimResult& r = results[i];
    table.row()
        .add(rates[i % n], 3)
        .add(std::string(i >= n ? "on" : "off"))
        .add(r.total_prioritized_cost(built.population), 1);
    for (workload::ClassId c = 0; c < 3; ++c) {
      table.add(r.per_class[c].goodput_ratio(), 4);
    }
    table.add(static_cast<std::size_t>(r.crashes))
        .add(static_cast<std::size_t>(r.storm_rerequests))
        .add(r.total_downtime, 1)
        .add(static_cast<std::size_t>(r.overall().rejected))
        .add(std::string(resilience::to_string(r.max_overload_level)));
  }
  emit(table, run.opts);
}

/// An accelerated live run of `qps` over `duration` broadcast units: the
/// virtual clock makes it a pure function of `seed`.
serve::ServeConfig live(double duration, double qps, std::uint64_t seed) {
  serve::ServeConfig config;
  config.accelerated = true;
  config.duration = duration;
  config.target_qps = qps;
  config.seed = seed;
  return config;
}

serve::ServeReport serve_live(const serve::ServeConfig& config,
                              serve::TraceRecorder* recorder) {
  const auto cat = config.build_catalog();
  const auto pop = config.build_population();
  serve::LoadDriver driver(cat, pop, config.target_qps, config.duration,
                           config.seed);
  return serve::LiveServer(cat, pop, config).run_accelerated(driver, recorder);
}

/// The live run and its replay agree on every statistic the two reports
/// share: counts exactly, waits bit for bit.
bool replay_matches(const serve::ServeReport& live,
                    const core::SimResult& replayed) {
  if (live.end_time != replayed.end_time ||
      live.push_transmissions != replayed.push_transmissions ||
      live.pull_transmissions != replayed.pull_transmissions ||
      live.mean_pull_queue_len != replayed.mean_pull_queue_len ||
      live.max_pull_queue_len != replayed.max_pull_queue_len ||
      live.per_class.size() != replayed.per_class.size()) {
    return false;
  }
  for (std::size_t c = 0; c < live.per_class.size(); ++c) {
    const auto& a = live.per_class[c];
    const auto& b = replayed.per_class[c];
    if (a.arrived != b.arrived || a.served != b.served ||
        a.wait.mean() != b.wait.mean() || a.wait.count() != b.wait.count()) {
      return false;
    }
  }
  return true;
}

/// R4: the live server over 300 broadcast units per offered load: achieved
/// QPS, pull-queue depth and per-class p95 waits. Each point journals its
/// run as sv2 and replays the journal through the DES; the replay column
/// says whether rep 0 reproduced the live run.
void serve_qps(const Run& run) {
  const double loads[] = {2.0, 5.0, 8.0, 12.0, 20.0};
  struct Point {
    serve::ServeReport report;
    bool exact = false;
  };
  const auto points = runtime::sweep(
      std::size(loads),
      [&](std::size_t i) {
        const serve::ServeConfig config = live(300.0, loads[i], run.opts.seed);
        std::stringstream journal;
        Point p;
        {
          serve::TraceRecorder recorder(journal, config);
          p.report = serve_live(config, &recorder);
        }
        const auto replayed = serve::replay(serve::load_trace(journal));
        p.exact =
            replayed.size() == 1 && replay_matches(p.report, replayed.front());
        return p;
      },
      sweep_options(run.opts));
  exp::Table table({"target qps", "achieved", "served", "queue p99",
                    "c0 p95", "c1 p95", "c2 p95", "replay"});
  for (std::size_t i = 0; i < points.size(); ++i) {
    const serve::ServeReport& r = points[i].report;
    table.row()
        .add(loads[i], 1)
        .add(r.achieved_qps, 3)
        .add(static_cast<std::size_t>(r.served))
        .add(r.queue_depth.p99, 2);
    for (const auto& cls : r.per_class) {
      table.add(cls.wait_p95.count() > 0 ? cls.wait_p95.value() : 0.0, 2);
    }
    table.add(points[i].exact ? "exact" : "DIVERGED");
  }
  emit(table, run.opts);
}

/// Requests a class lost to its deadline, the shedder, the ladder's uplink
/// rejection or the channel.
std::uint64_t failures(const metrics::ClassStats& s) {
  return s.abandoned + s.shed + s.rejected + s.lost;
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// Whether no class fails a larger share of its arrivals than the class
/// below it, compared exactly by cross-multiplication. Classes with no
/// arrivals never break the order.
bool failure_rates_ordered(const std::vector<metrics::ClassStats>& stats) {
  for (std::size_t c = 0; c + 1 < stats.size(); ++c) {
    const auto& hi = stats[c];  // higher priority (priorities are N..1)
    const auto& lo = stats[c + 1];
    if (hi.arrived == 0 || lo.arrived == 0) continue;
    if (failures(hi) * lo.arrived > failures(lo) * hi.arrived) return false;
  }
  return true;
}

/// R5: the live server under the whole failure model (mean deadline 6, the
/// burst-error channel with retries, a drop-lowest-priority queue of 32,
/// the overload ladder) over 200 broadcast units per offered load. The qos
/// column says whether each class's total failure rate stays at or below
/// the next lower class's. Totals, not timeouts alone: the ladder turns
/// low-class timeouts into sheds and rejections on purpose.
void serve_chaos(const Run& run) {
  const double loads[] = {4.0, 8.0, 14.0, 22.0};
  const auto reports = runtime::sweep(
      std::size(loads),
      [&](std::size_t i) {
        serve::ServeConfig config = live(200.0, loads[i], run.opts.seed);
        config.mean_deadline = 6.0;
        config.fault.enabled = true;
        config.fault.channel.p_good_to_bad = 0.05;
        config.fault.channel.p_bad_to_good = 0.25;
        config.fault.channel.corrupt_bad = 0.6;
        config.fault.channel.corrupt_good = 0.01;
        config.fault.queue_capacity = 32;
        config.fault.shed_policy = fault::ShedPolicy::kDropLowestPriority;
        config.overload.enabled = true;
        return serve_live(config, nullptr);
      },
      sweep_options(run.opts));
  exp::Table table({"target qps", "achieved", "ladder", "fail c0/c1/c2",
                    "retry", "shed", "qos"});
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const serve::ServeReport& r = reports[i];
    std::string fails;
    for (std::size_t c = 0; c < r.per_class.size(); ++c) {
      char buf[16];
      std::snprintf(buf, sizeof buf, "%.3f",
                    share(failures(r.per_class[c]), r.per_class[c].arrived));
      fails += c ? "/" : "";
      fails += buf;
    }
    table.row()
        .add(loads[i], 1)
        .add(r.achieved_qps, 3)
        .add(static_cast<std::size_t>(r.max_overload_level))
        .add(fails)
        .add(share(r.retries, r.arrivals), 3)
        .add(share(r.shed, r.arrivals), 3)
        .add(failure_rates_ordered(r.per_class) ? "ordered" : "INVERTED");
  }
  emit(table, run.opts);
}

/// R6: every scenario preset at intensities 0.5, 1 and 2, θ = 0.60, K = 20,
/// α = 0.5: prioritized cost, per-class goodput, the worst inter-service
/// gap over the classes, and the requests a handoff re-homed or lost.
void scenario_sweep(const Run& run) {
  const scenario::Preset presets[] = {
      scenario::Preset::kDiurnal, scenario::Preset::kFlashcrowd,
      scenario::Preset::kCommuter, scenario::Preset::kKitchenSink};
  const double intensities[] = {0.5, 1.0, 2.0};
  constexpr std::size_t n = std::size(intensities);
  struct Cell {
    core::SimResult result;
    double cost;
    scenario::ShapeSummary shape;
  };
  // Preset-major, intensity-minor point index.
  const auto cells = runtime::sweep(
      std::size(presets) * n,
      [&](std::size_t i) {
        exp::Scenario s = paper_scenario(run.opts, 0.60);
        s.preset = presets[i / n];
        s.preset_intensity = intensities[i % n];
        const auto built = s.build();
        core::SimResult r = exp::run_hybrid(built, at(20, 0.5));
        const double cost = r.total_prioritized_cost(built.population);
        return Cell{std::move(r), cost, built.shape};
      },
      sweep_options(run.opts));
  exp::Table table({"preset", "intensity", "p-cost", "goodput A", "goodput B",
                    "goodput C", "worst gap", "re-homed", "lost"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    table.row()
        .add(std::string(scenario::to_string(presets[i / n])))
        .add(intensities[i % n], 1)
        .add(cell.cost, 1);
    double worst_gap = 0.0;
    for (workload::ClassId c = 0; c < 3; ++c) {
      table.add(cell.result.per_class[c].goodput_ratio(), 4);
      worst_gap = std::max(worst_gap, cell.result.per_class[c].gap.max());
    }
    table.add(worst_gap, 1)
        .add(static_cast<std::size_t>(cell.shape.rehomed))
        .add(static_cast<std::size_t>(cell.shape.total_lost()));
  }
  emit(table, run.opts);
}

// --- the table -----------------------------------------------------------

struct Figure {
  std::string_view name;
  /// The figure records traces of --requests / divisor requests each; 0
  /// means a fixed size, and the figure reads no --requests.
  std::size_t divisor;
  /// Whether the figure reads --plot PREFIX.
  bool plots;
  void (*print)(const Run&);
};

// In the order of DESIGN.md's experiment index.
constexpr Figure kFigures[] = {
    {"fig3_delay_alpha0", 1, true, fig3},
    {"fig4_delay_alpha1", 1, false, fig4},
    {"fig34_delay_alpha_mid", 1, false, fig34},
    {"fig5_prioritized_cost", 1, false, fig5},
    {"fig6_cost_vs_alpha", 1, false, fig6},
    {"fig7_analytic_vs_sim", 1, true, fig7},
    {"ext_blocking_bandwidth", 1, false, blocking_bandwidth},
    {"abl_pull_policies", 1, false, pull_policies},
    {"abl_push_policies", 1, false, push_policies},
    {"abl_importance_forms", 1, false, importance_forms},
    {"abl_aging", 1, false, aging},
    {"ext_adaptive_drift", 2, false, adaptive_drift},
    {"ext_multichannel", 1, false, multichannel},
    {"ext_client_cache", 2, false, client_cache},
    {"ext_uplink_contention", 3, false, uplink_contention},
    {"ext_air_indexing", 0, false, air_indexing},
    {"ext_burstiness", 2, false, burstiness},
    {"ext_closed_loop", 0, false, closed_loop},
    {"fault_degradation", 1, false, fault_degradation},
    {"chaos_resilience", 1, false, chaos_resilience},
    {"serve_qps", 0, false, serve_qps},
    {"serve_chaos", 0, false, serve_chaos},
    {"scenario_sweep", 1, false, scenario_sweep},
};

std::string figure_list() {
  std::string list;
  for (const Figure& f : kFigures) list += "\n  " + std::string(f.name);
  return list;
}

}  // namespace
}  // namespace pushpull::bench

int main(int argc, char** argv) {
  using namespace pushpull;
  using bench::Figure;
  using bench::kFigures;
  std::span<const Figure> selected(kFigures);
  bench::Run run;
  bench::parse_or_exit(argc, argv, [&](const exp::ArgParser& args) {
    const std::string name = args.get_positional(0, "");
    if (args.get_flag("help")) {
      std::cout << "usage: figures [NAME] [--csv] [--requests N] [--seed S] "
                   "[--jobs N] [--plot PREFIX]\nNAME is one of:"
                << bench::figure_list() << "\n";
      std::exit(0);
    }
    if (!name.empty()) {
      const auto it = std::find_if(
          std::begin(kFigures), std::end(kFigures),
          [&](const Figure& f) { return f.name == name; });
      if (it == std::end(kFigures)) {
        throw std::invalid_argument("unknown figure '" + name +
                                    "'; NAME is one of:" +
                                    bench::figure_list());
      }
      selected = std::span(it, 1);
    }
    run.opts.csv = args.get_flag("csv");
    run.opts.seed = args.get_u64("seed", run.opts.seed);
    run.opts.jobs = args.get_jobs("jobs");
    if (name.empty() || selected[0].divisor > 0) {
      run.opts.num_requests = args.get_size("requests", run.opts.num_requests);
    }
    if (!name.empty() && selected[0].plots) {
      run.plot = args.get_string("plot", run.plot);
    }
    args.reject_unread();
    // The figure with the largest divisor sets the smallest count that
    // leaves every selected trace non-empty.
    const Figure& finest = *std::max_element(
        selected.begin(), selected.end(),
        [](const Figure& a, const Figure& b) { return a.divisor < b.divisor; });
    if (run.opts.num_requests < finest.divisor) {
      throw std::invalid_argument(std::string(finest.name) +
                                  " needs --requests >= " +
                                  std::to_string(finest.divisor) +
                                  " for a non-empty trace");
    }
  });
  try {
    for (const Figure& f : selected) {
      bench::Run figure_run = run;
      if (f.divisor > 0) figure_run.opts.num_requests /= f.divisor;
      f.print(figure_run);
    }
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}
