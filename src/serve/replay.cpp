#include "serve/replay.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <stdexcept>

#include "core/hybrid_server.hpp"
#include "obs/export.hpp"
#include "rng/splitmix64.hpp"
#include "runtime/sweep.hpp"

namespace pushpull::serve {

using obs::render_number;

std::vector<core::SimResult> replay(const RecordedRun& run,
                                    const ReplayOptions& options) {
  if (options.reps == 0) {
    throw std::invalid_argument("serve::replay: reps must be >= 1");
  }
  const catalog::Catalog cat = run.config.build_catalog();
  const workload::ClientPopulation pop = run.config.build_population();
  // The engine streams the recording in place, so the arrival order a
  // workload::Trace would check on construction is checked here, once.
  const std::span<const workload::Request> requests = run.requests;
  if (!std::is_sorted(requests.begin(), requests.end(),
                      [](const workload::Request& a,
                         const workload::Request& b) {
                        return a.arrival < b.arrival;
                      })) {
    throw std::invalid_argument(
        "serve::replay: recorded arrivals must be non-decreasing");
  }

  auto run_one = [&](std::size_t rep) -> core::SimResult {
    // Same decorrelation idiom as exp::replicate_hybrid — but only the
    // *server* seed moves; the workload is the recording and stays frozen.
    // Rep 0 runs the recorded seed verbatim (the bit-exact bridge).
    const std::uint64_t seed =
        rep > 0 ? rng::SplitMix64::mix(run.config.seed + rep)
                : run.config.seed;
    core::HybridConfig config = run.config.hybrid();
    config.seed = seed;
    core::HybridServer server(cat, pop, config);
    // A drained recording holds only the arrivals admitted before the
    // drain, so the engine drains at the same instant with nothing left to
    // skip.
    return server.run(requests, run.config.drain_after, nullptr);
  };

  return runtime::sweep(options.reps, run_one, {.jobs = options.jobs});
}

std::string render_replay_report(const RecordedRun& run,
                                 const std::vector<core::SimResult>& results) {
  std::ostringstream out;
  out << "{\"schema\":\"replay1\",\"seed\":" << run.config.seed
      << ",\"requests\":" << run.requests.size()
      << ",\"decisions\":" << run.decisions
      << ",\"reps\":" << results.size() << ",\"cutoff\":" << run.config.cutoff
      << ",\"alpha\":" << render_number(run.config.alpha)
      << ",\"pull_policy\":\"" << sched::to_string(run.config.pull_policy)
      << "\",\"push_policy\":\"" << sched::to_string(run.config.push_policy)
      << "\"}\n";
  for (std::size_t rep = 0; rep < results.size(); ++rep) {
    const core::SimResult& r = results[rep];
    out << "{\"rep\":" << rep
        << ",\"end_time\":" << render_number(r.end_time)
        << ",\"push_tx\":" << r.push_transmissions
        << ",\"pull_tx\":" << r.pull_transmissions
        << ",\"blocked_tx\":" << r.blocked_transmissions
        << ",\"mean_pull_queue_len\":"
        << render_number(r.mean_pull_queue_len)
        << ",\"max_pull_queue_len\":" << r.max_pull_queue_len << "}\n";
    for (std::size_t cls = 0; cls < r.per_class.size(); ++cls) {
      const metrics::ClassStats& s = r.per_class[cls];
      out << "{\"rep\":" << rep << ",\"class\":" << cls
          << ",\"arrived\":" << s.arrived << ",\"served\":" << s.served
          << ",\"served_push\":" << s.served_push
          << ",\"served_pull\":" << s.served_pull
          << ",\"blocked\":" << s.blocked
          << ",\"mean_wait\":" << render_number(s.wait.mean())
          << ",\"wait_p50\":"
          << render_number(s.wait_p50.count() ? s.wait_p50.value() : 0.0)
          << ",\"wait_p95\":"
          << render_number(s.wait_p95.count() ? s.wait_p95.value() : 0.0)
          << ",\"wait_p99\":"
          << render_number(s.wait_p99.count() ? s.wait_p99.value() : 0.0)
          << "}\n";
    }
  }
  return out.str();
}

}  // namespace pushpull::serve
