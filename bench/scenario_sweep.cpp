// Scenario degradation curves — every preset × intensity, plus the two
// machine-checked gates that make the scenario engine trustworthy:
//
//  1. determinism — the kitchen-sink chaos run is bit-identical across
//     --jobs 1/2/8 (pooled counters and Welford moments compare exactly);
//  2. adaptivity — under the flashcrowd preset (rate spike + hot set
//     jumping D/2) the adaptive cutoff re-optimizer must beat a static
//     cutoff on total prioritized cost.
//
//   scenario_sweep [--csv] [--requests N] [--seed S] [--jobs N]
//                  [--out FILE]
//
// Emits BENCH_scenarios.json; exit status 0 iff both gates hold.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/hybrid_server.hpp"
#include "exp/chaos.hpp"
#include "metrics/float_compare.hpp"
#include "scenario/presets.hpp"

namespace {

using namespace pushpull;
using scenario::Preset;

struct Cell {
  Preset preset = Preset::kNone;
  double intensity = 1.0;
  double cost = 0.0;
  std::vector<double> goodput;  // per class
  double worst_gap = 0.0;       // max inter-service gap over classes
  std::uint64_t rehomed = 0;
  std::uint64_t lost = 0;
};

/// Exact equality of two pooled chaos summaries — any drift across worker
/// counts is a determinism bug, so the comparison is bitwise, not NEAR.
bool summaries_identical(const exp::ChaosSummary& a,
                         const exp::ChaosSummary& b) {
  if (a.crashes != b.crashes || a.handoff_rehomed != b.handoff_rehomed ||
      a.handoff_lost != b.handoff_lost ||
      !metrics::exactly_equal(a.total_downtime, b.total_downtime) ||
      !metrics::exactly_equal(a.overall_delay.mean(), b.overall_delay.mean()) ||
      !metrics::exactly_equal(a.overall_delay.variance(),
                              b.overall_delay.variance()) ||
      !metrics::exactly_equal(a.total_cost.mean(), b.total_cost.mean()) ||
      !metrics::exactly_equal(a.goodput.mean(), b.goodput.mean()) ||
      a.per_class.size() != b.per_class.size()) {
    return false;
  }
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    const auto& x = a.per_class[c];
    const auto& y = b.per_class[c];
    if (x.arrived != y.arrived || x.served != y.served ||
        x.blocked != y.blocked || x.abandoned != y.abandoned ||
        x.gap.count() != y.gap.count() ||
        !metrics::exactly_equal(x.wait.mean(), y.wait.mean()) ||
        !metrics::exactly_equal(x.gap.mean(), y.gap.mean()) ||
        !metrics::exactly_equal(x.gap.max(), y.gap.max())) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_scenarios.json";
  const auto opts = bench::parse_options(argc, argv, out_path);

  const std::vector<Preset> presets = {Preset::kDiurnal, Preset::kFlashcrowd,
                                       Preset::kCommuter,
                                       Preset::kKitchenSink};
  const std::vector<double> intensities = {0.5, 1.0, 2.0};

  // --- degradation curves: preset × intensity ----------------------------
  auto run_cell = [&](std::size_t i) {
    Cell cell;
    cell.preset = presets[i / intensities.size()];
    cell.intensity = intensities[i % intensities.size()];
    exp::Scenario s = bench::paper_scenario(opts, 0.60);
    s.preset = cell.preset;
    s.preset_intensity = cell.intensity;
    const auto built = s.build();
    core::HybridConfig config;
    config.cutoff = 20;
    config.alpha = 0.5;
    const core::SimResult r = exp::run_hybrid(built, config);
    cell.cost = r.total_prioritized_cost(built.population);
    for (workload::ClassId c = 0; c < built.population.num_classes(); ++c) {
      cell.goodput.push_back(r.per_class[c].goodput_ratio());
      cell.worst_gap = std::max(cell.worst_gap, r.per_class[c].gap.max());
    }
    cell.rehomed = built.shape.rehomed;
    cell.lost = built.shape.total_lost();
    return cell;
  };
  const auto grid = exp::sweep(presets.size() * intensities.size(), run_cell,
                               bench::sweep_options(opts));

  exp::Table table({"preset", "intensity", "p-cost", "goodput A", "goodput B",
                    "goodput C", "worst gap", "re-homed", "lost"});
  for (const auto& cell : grid) {
    table.row()
        .add(std::string(scenario::to_string(cell.preset)))
        .add(cell.intensity, 1)
        .add(cell.cost, 1)
        .add(cell.goodput[0], 4)
        .add(cell.goodput[1], 4)
        .add(cell.goodput[2], 4)
        .add(cell.worst_gap, 1)
        .add(static_cast<std::size_t>(cell.rehomed))
        .add(static_cast<std::size_t>(cell.lost));
  }
  bench::emit(table, opts);

  // --- gate 1: jobs independence under the kitchen sink ------------------
  exp::Scenario chaos_scenario = bench::paper_scenario(opts, 0.60);
  chaos_scenario.num_requests = std::min<std::size_t>(opts.num_requests, 8000);
  chaos_scenario.preset = Preset::kKitchenSink;
  core::HybridConfig chaos_config;
  chaos_config.cutoff = 20;
  chaos_config.resilience.crash.enabled = true;
  chaos_config.resilience.crash.rate = 0.005;
  chaos_config.resilience.crash.downtime = 20.0;

  bool jobs_identical = true;
  bool invariants_pass = true;
  exp::ChaosSummary reference;
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    exp::ChaosOptions chaos_opts;
    chaos_opts.replications = 4;
    chaos_opts.jobs = jobs;
    chaos_scenario.jobs = jobs;
    const auto summary = exp::run_chaos(chaos_scenario, chaos_config,
                                        chaos_opts);
    invariants_pass = invariants_pass && summary.invariants.all_pass() &&
                      summary.replay_identical;
    if (jobs == 1) {
      reference = summary;
    } else if (!summaries_identical(reference, summary)) {
      jobs_identical = false;
      std::cerr << "scenario_sweep: kitchen-sink chaos diverged at --jobs "
                << jobs << "\n";
    }
  }

  // --- gate 2: adaptive beats static under the flash crowd ---------------
  // theta = 1.0 so the rank prefix carries real mass: when the crowd
  // arrives and the hot set jumps D/2, a static cutoff keeps pushing
  // yesterday's items while the estimator re-learns the new head.
  exp::Scenario flash = bench::paper_scenario(opts, 1.0);
  flash.num_requests = std::max<std::size_t>(opts.num_requests / 2, 10000);
  flash.preset = Preset::kFlashcrowd;
  const auto flash_built = flash.build();

  core::HybridConfig static_config;
  static_config.cutoff = 40;
  static_config.alpha = 0.5;
  const core::SimResult rs = exp::run_hybrid(flash_built, static_config);
  const double static_cost = rs.total_prioritized_cost(flash_built.population);

  core::HybridConfig adaptive = static_config;
  adaptive.reoptimize_interval = 200.0;
  adaptive.estimator_half_life = 300.0;
  const core::SimResult ra = exp::run_hybrid(flash_built, adaptive);
  const double adaptive_cost =
      ra.total_prioritized_cost(flash_built.population);
  const bool adaptive_wins = adaptive_cost < static_cost;

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "scenario_sweep: cannot open " << out_path << "\n";
    return 2;
  }
  out << "{\n  \"bench\": \"scenario_sweep\",\n"
      << "  \"requests\": " << opts.num_requests << ",\n  \"grid\": [\n";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& cell = grid[i];
    out << "    {\"preset\": \"" << scenario::to_string(cell.preset)
        << "\", \"intensity\": " << cell.intensity << ", \"cost\": "
        << cell.cost << ", \"goodput\": [" << cell.goodput[0] << ", "
        << cell.goodput[1] << ", " << cell.goodput[2] << "], \"worst_gap\": "
        << cell.worst_gap << ", \"rehomed\": " << cell.rehomed
        << ", \"lost\": " << cell.lost << "}"
        << (i + 1 < grid.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"jobs_identical\": " << (jobs_identical ? "true" : "false")
      << ",\n  \"invariants_pass\": " << (invariants_pass ? "true" : "false")
      << ",\n  \"flashcrowd_static_cost\": " << static_cost
      << ",\n  \"flashcrowd_adaptive_cost\": " << adaptive_cost
      << ",\n  \"adaptive_reoptimizations\": " << ra.reoptimizations
      << ",\n  \"adaptive_beats_static\": "
      << (adaptive_wins ? "true" : "false") << "\n}\n";

  std::cout << "jobs 1/2/8 " << (jobs_identical ? "identical" : "DIVERGED")
            << "; invariants " << (invariants_pass ? "pass" : "FAIL")
            << "; flashcrowd static cost " << static_cost << " vs adaptive "
            << adaptive_cost << " ("
            << (adaptive_wins ? "adaptive wins" : "ADAPTIVE LOST")
            << "); wrote " << out_path << "\n";
  return (jobs_identical && invariants_pass && adaptive_wins) ? 0 : 1;
}
