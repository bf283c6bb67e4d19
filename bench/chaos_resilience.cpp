// Robustness — degradation curves under server crashes, with and without
// the overload ladder.
//
// One grid over the paper's §5.1 scenario at elevated load: crash rate ×
// {ladder off, ladder on}, cold recovery. Each cell reports prioritized
// cost, per-class goodput, crash/storm/downtime totals and the highest
// ladder level reached, so the perf trajectory tracks *degradation
// curves*, not just fair-weather numbers.
//
//   chaos_resilience [--csv] [--requests N] [--seed S] [--jobs N]
//                    [--out FILE]
//
// Emits BENCH_resilience.json. Exit status checks one exact per-seed
// invariant: with the same stream, a higher crash rate can only shorten
// inter-crash gaps, so the crash count per cell must be monotone
// non-decreasing in the rate (at fixed ladder setting).
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "resilience/overload.hpp"

namespace {

using namespace pushpull;

struct Cell {
  double crash_rate = 0.0;
  bool ladder = false;
  double cost = 0.0;
  std::vector<double> goodput;  // per class
  std::uint64_t crashes = 0;
  std::uint64_t storms = 0;
  double downtime = 0.0;
  std::uint64_t rejected = 0;
  resilience::OverloadLevel max_level = resilience::OverloadLevel::kNormal;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_resilience.json";
  const auto opts = bench::parse_options(argc, argv, out_path);

  // Elevated load so the ladder has something to degrade gracefully from;
  // the trace is shared across every cell (paired comparison).
  exp::Scenario scenario = bench::paper_scenario(opts, 0.60);
  scenario.arrival_rate = 8.0;
  const auto built = scenario.build();

  const std::vector<double> rate_grid = {0.0, 0.002, 0.005, 0.01, 0.02};
  const std::size_t cells = rate_grid.size() * 2;

  auto run_cell = [&](std::size_t i) {
    const double rate = rate_grid[i % rate_grid.size()];
    const bool ladder = i >= rate_grid.size();

    core::HybridConfig config;
    config.cutoff = 20;
    config.alpha = 0.5;
    config.resilience.crash.enabled = rate > 0.0;
    config.resilience.crash.rate = rate;
    config.resilience.crash.downtime = 30.0;
    config.resilience.crash.recovery = resilience::RecoveryMode::kCold;
    config.resilience.overload.enabled = ladder;
    config.resilience.overload.eval_interval = 5.0;
    config.resilience.overload.capacity_ref = 32;
    const core::SimResult r = exp::run_hybrid(built, config);

    Cell cell;
    cell.crash_rate = rate;
    cell.ladder = ladder;
    cell.cost = r.total_prioritized_cost(built.population);
    for (workload::ClassId c = 0; c < built.population.num_classes(); ++c) {
      cell.goodput.push_back(r.per_class[c].goodput_ratio());
    }
    cell.crashes = r.crashes;
    cell.storms = r.storm_rerequests;
    cell.downtime = r.total_downtime;
    cell.rejected = r.overall().rejected;
    cell.max_level = r.max_overload_level;
    return cell;
  };
  const auto grid = exp::sweep(cells, run_cell, bench::sweep_options(opts));

  exp::Table table({"crash rate", "ladder", "p-cost", "goodput A",
                    "goodput B", "goodput C", "crashes", "storms",
                    "downtime", "rejected", "max level"});
  for (const auto& cell : grid) {
    table.row()
        .add(cell.crash_rate, 3)
        .add(std::string(cell.ladder ? "on" : "off"))
        .add(cell.cost, 1)
        .add(cell.goodput[0], 4)
        .add(cell.goodput[1], 4)
        .add(cell.goodput[2], 4)
        .add(static_cast<std::size_t>(cell.crashes))
        .add(static_cast<std::size_t>(cell.storms))
        .add(cell.downtime, 1)
        .add(static_cast<std::size_t>(cell.rejected))
        .add(std::string(resilience::to_string(cell.max_level)));
  }
  bench::emit(table, opts);

  // Exact per-seed check: at fixed ladder setting, the crash count must be
  // monotone non-decreasing in the crash rate (a higher rate uniformly
  // shrinks the same stream's inter-crash gaps).
  bool crashes_monotone = true;
  for (std::size_t half = 0; half < 2; ++half) {
    const std::size_t base = half * rate_grid.size();
    for (std::size_t i = 1; i < rate_grid.size(); ++i) {
      if (grid[base + i].crashes < grid[base + i - 1].crashes) {
        crashes_monotone = false;
      }
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "chaos_resilience: cannot open " << out_path << "\n";
    return 2;
  }
  out << "{\n  \"bench\": \"chaos_resilience\",\n"
      << "  \"requests\": " << scenario.num_requests << ",\n"
      << "  \"arrival_rate\": " << scenario.arrival_rate << ",\n"
      << "  \"grid\": [\n";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& cell = grid[i];
    out << "    {\"crash_rate\": " << cell.crash_rate << ", \"ladder\": "
        << (cell.ladder ? "true" : "false") << ", \"cost\": " << cell.cost
        << ", \"goodput\": [" << cell.goodput[0] << ", " << cell.goodput[1]
        << ", " << cell.goodput[2] << "], \"crashes\": " << cell.crashes
        << ", \"storms\": " << cell.storms << ", \"downtime\": "
        << cell.downtime << ", \"rejected\": " << cell.rejected
        << ", \"max_level\": \"" << resilience::to_string(cell.max_level)
        << "\"}" << (i + 1 < grid.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"crashes_monotone_in_rate\": "
      << (crashes_monotone ? "true" : "false") << "\n}\n";

  std::cout << "crash counts "
            << (crashes_monotone ? "monotone" : "NOT MONOTONE")
            << " in crash rate; wrote " << out_path << "\n";
  return crashes_monotone ? 0 : 1;
}
