#pragma once

// The benchmark's four workloads (README.md here says why each exists).
// A workload builds its inputs from the seed in setup(), does one
// repetition of its timed work in run(), and makes its traced run in
// traced(). Each checks its own outputs: run() returns a digest that every
// repetition must reproduce, plus any broken invariant.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace pushpull::perf {

inline constexpr std::string_view kWorkloads[] = {
    "paper-sweep", "deep-pull", "chaos-mix", "serve-journal"};

inline constexpr std::uint64_t kDefaultSeed = 20050614;

struct Params {
  std::uint64_t seed = kDefaultSeed;
  /// Size divisor: 1 for the benchmark, 100 for --smoke.
  std::size_t scale = 1;
  /// Worker threads for the paper sweep.
  std::size_t jobs = 1;
  /// Directory the serve journal and the span file are written to.
  std::string out_dir = "build-perf";
};

/// One repetition's outcome.
struct Rep {
  /// Simulated requests settled.
  std::uint64_t requests = 0;
  /// Canonical rendering of the outputs (counts, hex-float means).
  std::string digest;
  /// Empty when every invariant held; otherwise what broke.
  std::string violation;
};

/// Per-layer metrics of a traced run, by name.
using Layers = std::map<std::string, double>;

/// The correctness checks a traced run makes.
struct Checks {
  std::size_t attempted = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs (the benchmark's setup_s).
  virtual void setup() = 0;
  /// One repetition of the timed work.
  virtual Rep run() = 0;
  /// The traced run: builds its own inputs, records a span around every
  /// library call, fills `layers`, and returns the untraced digest, which
  /// must equal run()'s.
  virtual std::string traced(SpanLog& spans, Layers& layers,
                             Checks& checks) = 0;
};

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      const Params& params);

}  // namespace pushpull::perf
