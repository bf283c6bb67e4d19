// O1 — cost of the observability layer (src/obs/).
//
// Runs one fixed simulation three ways — observer off (baseline), observer
// off again (noise floor), observer on with every category — taking the
// min-of-R wall time of each, verifies the simulation numbers are
// bit-identical in all three, and writes BENCH_obs.json.
//
// The pass gate is the DISABLED path: instrumentation nobody turned on must
// cost nothing measurable, so the two obs-off timings have to agree within
// 2%. (Both runs execute the same per-site null check; any spread between
// them is machine noise, which is exactly the bound the claim "disabled
// tracing is free" has to clear.) The obs-on timing is recorded as
// telemetry, not gated — it pays for real work.
//
//   obs_overhead [--rounds R] [--requests N] [--out FILE]
//
// Defaults: 5 rounds, 40000 requests, out = BENCH_obs.json.
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "exp/scenario.hpp"
#include "obs/profile.hpp"
#include "runtime/run_reporter.hpp"

int main(int argc, char** argv) {
  using namespace pushpull;
  std::size_t rounds = 5;
  std::string out_path = "BENCH_obs.json";
  exp::Scenario scenario;
  scenario.num_requests = 40000;
  bench::parse_or_exit(argc, argv, [&](const exp::ArgParser& args) {
    rounds = args.get_size("rounds", rounds);
    out_path = args.get_string("out", out_path);
    scenario.num_requests = args.get_size("requests", scenario.num_requests);
  });
  const auto built = scenario.build();

  core::HybridConfig off;
  off.cutoff = 30;
  off.alpha = 0.5;
  core::HybridConfig on = off;
  on.obs.enabled = true;

  obs::Profiler profiler;
  const auto time_min = [&](const core::HybridConfig& config,
                            const char* label, core::SimResult* result) {
    double best = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) {
      const obs::ProfileScope scope(&profiler, label);
      const runtime::StopWatch watch;
      core::SimResult run = exp::run_hybrid(built, config);
      const double ms = watch.elapsed_ms();
      if (r == 0 || ms < best) best = ms;
      if (result != nullptr && r == 0) *result = run;
    }
    return best;
  };

  core::SimResult r_off;
  core::SimResult r_off2;
  core::SimResult r_on;
  const double off_ms = time_min(off, "run.baseline", &r_off);
  const double off2_ms = time_min(off, "run.noise_floor", &r_off2);
  const double on_ms = time_min(on, "run.traced", &r_on);

  // Bit-exact invariant: observation is write-only, so the observer's
  // presence (on or off) must be invisible in every simulation number.
  const auto same = [&](const core::SimResult& a, const core::SimResult& b) {
    return a.overall().wait.mean() == b.overall().wait.mean() &&
           a.total_prioritized_cost(built.population) ==
               b.total_prioritized_cost(built.population) &&
           a.push_transmissions == b.push_transmissions &&
           a.pull_transmissions == b.pull_transmissions;
  };
  const bool identical = same(r_off, r_off2) && same(r_off, r_on);

  const double disabled_pct =
      off_ms > 0.0 ? (off2_ms - off_ms) / off_ms * 100.0 : 0.0;
  const double enabled_pct =
      off_ms > 0.0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;
  const bool pass = identical && disabled_pct <= 2.0;

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "obs_overhead: cannot open " << out_path << "\n";
    return 2;
  }
  out << "{\n"
      << "  \"bench\": \"obs_overhead\",\n"
      << "  \"rounds\": " << rounds << ",\n"
      << "  \"requests\": " << scenario.num_requests << ",\n"
      << "  \"baseline_ms\": " << off_ms << ",\n"
      << "  \"noise_floor_ms\": " << off2_ms << ",\n"
      << "  \"traced_ms\": " << on_ms << ",\n"
      << "  \"disabled_overhead_pct\": " << disabled_pct << ",\n"
      << "  \"enabled_overhead_pct\": " << enabled_pct << ",\n"
      << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"pass\": " << (pass ? "true" : "false") << ",\n"
      << "  \"scopes\": [";
  const auto rows = profiler.rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << (i ? "," : "") << "\n    {\"name\": \"" << rows[i].first
        << "\", \"calls\": " << rows[i].second.calls
        << ", \"total_ms\": " << rows[i].second.total_ms << "}";
  }
  out << "\n  ]\n}\n";

  std::cout << "baseline " << off_ms << " ms, noise floor " << off2_ms
            << " ms (disabled overhead " << disabled_pct << "%), traced "
            << on_ms << " ms (enabled overhead " << enabled_pct
            << "%), numbers "
            << (identical ? "bit-identical" : "DIVERGED") << "\n"
            << "wrote " << out_path << "\n";
  return pass ? 0 : 1;
}
