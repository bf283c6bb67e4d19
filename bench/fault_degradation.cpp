// Robustness — graceful degradation under an unreliable downlink.
//
// Two sweeps over the paper's §5.1 scenario:
//
//  1. Channel sweep: fix the Gilbert–Elliott recovery/corruption parameters
//     and raise the good→bad transition probability, so the stationary
//     bad-state fraction grows. Reports per-class mean delay and goodput
//     (served / settled) — the QoS ordering A < B < C must survive the
//     noise, which is the robustness claim this bench tracks.
//
//  2. Load sweep: bound the pull queue and raise the offered load; the shed
//     count must be monotone non-decreasing in load (checked, and the
//     result recorded in the JSON).
//
//   fault_degradation [--csv] [--requests N] [--seed S] [--jobs N]
//                     [--out FILE]
//
// Emits BENCH_fault.json with both series for cross-PR tracking.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/cli.hpp"

namespace {

using namespace pushpull;

struct ChannelPoint {
  double p_gb = 0.0;
  double stationary_bad = 0.0;
  std::vector<double> delay;    // per class
  std::vector<double> goodput;  // per class
  std::uint64_t lost = 0;
};

struct LoadPoint {
  double rate = 0.0;
  std::uint64_t shed = 0;
  std::uint64_t served = 0;
  double delay = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_fault.json";
  const auto opts = bench::parse_options(argc, argv, out_path);

  const exp::Scenario scenario = bench::paper_scenario(opts, 0.60);
  const auto built = scenario.build();

  // --- sweep 1: bad-state probability grid --------------------------------
  const std::vector<double> p_gb_grid = {0.0, 0.02, 0.05, 0.10, 0.20, 0.40};
  auto channel_point = [&](std::size_t i) {
    core::HybridConfig config;
    config.cutoff = 40;
    config.alpha = 0.5;
    config.fault.enabled = true;
    config.fault.channel.p_good_to_bad = p_gb_grid[i];
    config.fault.channel.p_bad_to_good = 0.30;
    config.fault.channel.corrupt_good = 0.0;
    config.fault.channel.corrupt_bad = 0.75;
    config.fault.retry.max_retries = 3;
    const core::SimResult r = exp::run_hybrid(built, config);

    ChannelPoint point;
    point.p_gb = p_gb_grid[i];
    point.stationary_bad = config.fault.channel.stationary_bad();
    for (workload::ClassId c = 0; c < built.population.num_classes(); ++c) {
      point.delay.push_back(r.per_class[c].wait.mean());
      point.goodput.push_back(r.per_class[c].goodput_ratio());
    }
    point.lost = r.overall().lost;
    return point;
  };
  const auto channel_series =
      exp::sweep(p_gb_grid.size(), channel_point, bench::sweep_options(opts));

  exp::Table channel_table({"p(g->b)", "stationary bad", "delay A", "delay B",
                            "delay C", "goodput A", "goodput B", "goodput C",
                            "lost"});
  for (const auto& p : channel_series) {
    channel_table.row()
        .add(p.p_gb, 2)
        .add(p.stationary_bad, 3)
        .add(p.delay[0], 2)
        .add(p.delay[1], 2)
        .add(p.delay[2], 2)
        .add(p.goodput[0], 4)
        .add(p.goodput[1], 4)
        .add(p.goodput[2], 4)
        .add(static_cast<std::size_t>(p.lost));
  }
  bench::emit(channel_table, opts);

  // --- sweep 2: offered load vs shedding ----------------------------------
  const std::vector<double> rate_grid = {2.0, 4.0, 6.0, 8.0, 10.0};
  auto load_point = [&](std::size_t i) {
    exp::Scenario s = scenario;
    s.arrival_rate = rate_grid[i];
    const auto loaded = s.build();
    core::HybridConfig config;
    config.cutoff = 0;  // pure pull stresses the bounded queue hardest
    config.alpha = 0.5;
    config.fault.queue_capacity = 8;
    config.fault.shed_policy = fault::ShedPolicy::kDropTail;
    const core::SimResult r = exp::run_hybrid(loaded, config);

    LoadPoint point;
    point.rate = rate_grid[i];
    point.shed = r.overall().shed;
    point.served = r.overall().served;
    point.delay = r.overall().wait.mean();
    return point;
  };
  const auto load_series =
      exp::sweep(rate_grid.size(), load_point, bench::sweep_options(opts));

  exp::Table load_table({"rate", "shed", "served", "mean delay"});
  for (const auto& p : load_series) {
    load_table.row()
        .add(p.rate, 1)
        .add(static_cast<std::size_t>(p.shed))
        .add(static_cast<std::size_t>(p.served))
        .add(p.delay, 2);
  }
  bench::emit(load_table, opts);

  const bool shed_monotone = std::is_sorted(
      load_series.begin(), load_series.end(),
      [](const LoadPoint& a, const LoadPoint& b) { return a.shed < b.shed; });

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "fault_degradation: cannot open " << out_path << "\n";
    return 2;
  }
  out << "{\n  \"bench\": \"fault_degradation\",\n"
      << "  \"requests\": " << scenario.num_requests << ",\n"
      << "  \"channel_sweep\": [\n";
  for (std::size_t i = 0; i < channel_series.size(); ++i) {
    const auto& p = channel_series[i];
    out << "    {\"p_gb\": " << p.p_gb
        << ", \"stationary_bad\": " << p.stationary_bad << ", \"delay\": ["
        << p.delay[0] << ", " << p.delay[1] << ", " << p.delay[2]
        << "], \"goodput\": [" << p.goodput[0] << ", " << p.goodput[1] << ", "
        << p.goodput[2] << "], \"lost\": " << p.lost << "}"
        << (i + 1 < channel_series.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"load_sweep\": [\n";
  for (std::size_t i = 0; i < load_series.size(); ++i) {
    const auto& p = load_series[i];
    out << "    {\"rate\": " << p.rate << ", \"shed\": " << p.shed
        << ", \"served\": " << p.served << ", \"delay\": " << p.delay << "}"
        << (i + 1 < load_series.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"shed_monotone_in_load\": "
      << (shed_monotone ? "true" : "false") << "\n}\n";

  std::cout << "shed counts " << (shed_monotone ? "monotone" : "NOT MONOTONE")
            << " in offered load; wrote " << out_path << "\n";
  return shed_monotone ? 0 : 1;
}
