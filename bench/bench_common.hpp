#pragma once

// Shared plumbing for the bench binaries: `figures` builds the paper's §5.1
// scenario through exp::Scenario, replays the identical trace across
// configurations (paired comparison), and prints its series through
// exp::Table (--csv for machine-readable output); every bench parses its
// flags through parse_or_exit.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "exp/cli.hpp"
#include "exp/scenario.hpp"
#include "exp/table.hpp"
#include "runtime/sweep.hpp"

namespace pushpull::bench {

struct BenchOptions {
  bool csv = false;
  std::size_t num_requests = 60000;
  std::uint64_t seed = 20050614;
  /// Worker threads for grid sweeps: one per hardware thread unless
  /// --jobs N. Output is identical for any value — sweeps collect results
  /// in grid order.
  std::size_t jobs = 0;
};

/// Hands the command line to `read`, then rejects any flag it left unread.
/// A malformed or unread flag prints the error and exits 1, before the
/// bench times anything.
template <typename Read>
void parse_or_exit(int argc, char** argv, Read read) {
  try {
    const exp::ArgParser args(argc, argv);
    read(args);
    args.reject_unread();
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    std::exit(1);
  }
}

/// runtime::sweep options for a bench grid: worker count from --jobs, no
/// progress sink (benches print tables, not telemetry).
inline runtime::SweepOptions sweep_options(const BenchOptions& opts) {
  runtime::SweepOptions sweep_opts;
  sweep_opts.jobs = opts.jobs;
  return sweep_opts;
}

inline exp::Scenario paper_scenario(const BenchOptions& opts, double theta) {
  exp::Scenario s;
  s.theta = theta;
  s.num_requests = opts.num_requests;
  s.seed = opts.seed;
  return s;
}

inline void emit(const exp::Table& table, const BenchOptions& opts) {
  if (opts.csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

/// The cutoff grid every delay/cost sweep uses (the paper plots K along the
/// x-axis of Figs. 3–5 and 7).
inline const std::size_t kCutoffGrid[] = {5,  10, 20, 30, 40, 50,
                                          60, 70, 80, 90, 100};

}  // namespace pushpull::bench
