// Parallel replications and sweeps with the runtime engine.
//
// Demonstrates the determinism contract end to end: a 12-replication run is
// executed serially and with every hardware thread, the two summaries are
// compared bit-for-bit, and a cutoff sweep fans out across workers while
// JSONL progress telemetry streams to stderr.
#include <iostream>

#include "exp/replication.hpp"
#include "exp/scenario.hpp"
#include "exp/table.hpp"
#include "runtime/runtime.hpp"

int main() {
  using namespace pushpull;

  exp::Scenario scenario;
  scenario.num_requests = 10000;
  core::HybridConfig config;
  config.cutoff = 30;
  config.alpha = 0.5;

  // 1) Replications: serial vs all-cores, same numbers either way.
  scenario.jobs = 1;
  const runtime::StopWatch serial_watch;
  const auto serial = exp::replicate_hybrid(scenario, config, 12);
  const double serial_ms = serial_watch.elapsed_ms();

  scenario.jobs = 0;  // one worker per hardware thread
  const runtime::StopWatch parallel_watch;
  const auto parallel = exp::replicate_hybrid(scenario, config, 12);
  const double parallel_ms = parallel_watch.elapsed_ms();

  std::cout << "replicate x12: serial " << serial_ms << " ms, parallel "
            << parallel_ms << " ms ("
            << runtime::ThreadPool::default_concurrency() << " workers)\n"
            << "overall delay " << serial.overall_delay.mean() << " vs "
            << parallel.overall_delay.mean() << " -> "
            << (serial.overall_delay.mean() == parallel.overall_delay.mean()
                    ? "bit-identical"
                    : "DIVERGED (bug!)")
            << "\n\n";

  // 2) A cutoff sweep over one shared trace, with live JSONL telemetry.
  const auto built = scenario.build();
  const std::size_t cutoffs[] = {10, 20, 30, 40, 60, 80};
  runtime::RunReporter reporter(std::cerr);
  runtime::SweepOptions sweep_opts;
  sweep_opts.jobs = 0;
  sweep_opts.reporter = &reporter;
  sweep_opts.label = "cutoff-sweep";
  const auto results = runtime::sweep(
      std::size(cutoffs),
      [&](std::size_t i) {
        core::HybridConfig c = config;
        c.cutoff = cutoffs[i];
        return exp::run_hybrid(built, c);
      },
      sweep_opts);

  exp::Table table({"K", "delay A", "delay C", "total cost"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    table.row()
        .add(cutoffs[i])
        .add(results[i].mean_wait(0), 2)
        .add(results[i].mean_wait(2), 2)
        .add(results[i].total_prioritized_cost(built.population), 2);
  }
  table.print(std::cout);
  return 0;
}
