// X4 — multi-channel extension: how much of the hybrid system's delay is
// the single-channel alternation constraint, and how delay scales when the
// operator adds on-demand channels.
//
// Columns compare the paper's shared-channel server against a layout with
// a dedicated broadcast channel plus N pull channels, at the same cutoff,
// on the same trace. Also reports per-class p99 tails — the premium SLA
// metric a carrier actually buys channels for.
#include <iostream>

#include "bench_common.hpp"
#include "core/hybrid_server.hpp"

int main(int argc, char** argv) {
  using namespace pushpull;
  const auto opts = bench::parse_options(argc, argv);

  std::cout << "# Multi-channel scaling, theta = 0.60, K = 20, alpha = 0.25\n";
  const auto built = bench::paper_scenario(opts, 0.60).build();

  core::HybridConfig shared;
  shared.cutoff = 20;
  shared.alpha = 0.25;
  const core::SimResult baseline = exp::run_hybrid(built, shared);

  exp::Table table({"layout", "delay A", "delay C", "overall", "p99 A",
                    "p99 C", "pull ch util"});
  table.row()
      .add("shared channel (paper)")
      .add(baseline.mean_wait(0), 2)
      .add(baseline.mean_wait(2), 2)
      .add(baseline.overall().wait.mean(), 2)
      .add(baseline.per_class[0].wait_p99.value(), 2)
      .add(baseline.per_class[2].wait_p99.value(), 2)
      .add("-");

  for (std::size_t channels : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                               std::size_t{4}}) {
    core::HybridConfig config = shared;
    config.pull_channels = channels;
    const core::SimResult r = exp::run_hybrid(built, config);
    double mean_util = 0.0;
    for (std::size_t c = 1; c <= channels; ++c) {
      mean_util += r.channel_utilization[c];
    }
    mean_util /= static_cast<double>(channels);
    table.row()
        .add("bcast + " + std::to_string(channels) + " pull ch")
        .add(r.mean_wait(0), 2)
        .add(r.mean_wait(2), 2)
        .add(r.overall().wait.mean(), 2)
        .add(r.per_class[0].wait_p99.value(), 2)
        .add(r.per_class[2].wait_p99.value(), 2)
        .add(mean_util, 3);
  }
  bench::emit(table, opts);
  return 0;
}
