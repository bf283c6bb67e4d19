#include "exp/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "metrics/float_compare.hpp"
#include "rng/splitmix64.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/sweep.hpp"

namespace pushpull::exp {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  out += ' ';
  out += std::to_string(v);
}

void append_f64(std::string& out, double v) {
  out += ' ';
  out += runtime::encode_double(v);
}

void append_welford(std::string& out, const metrics::Welford& w) {
  append_u64(out, w.count());
  append_f64(out, w.mean());
  append_f64(out, w.m2());
  append_f64(out, w.sum());
  append_f64(out, w.min());
  append_f64(out, w.max());
}

struct ChaosPartial {
  core::SimResult result;
  std::string digest;
  resilience::InvariantReport invariants;
  double goodput = 0.0;
  double total_cost = 0.0;
  pushpull::scenario::ShapeSummary shape;
};

resilience::InvariantReport check_run(
    const core::SimResult& result, const core::HybridConfig& config,
    const pushpull::scenario::ShapeSummary& shape, double gap_bound) {
  resilience::InvariantInputs inputs;
  inputs.per_class = result.per_class;
  inputs.queue_capacity = config.fault.queue_capacity;
  inputs.soft_capacity = 0;  // the ladder's soft cap engages late; advisory
  inputs.max_queue_len = result.max_pull_queue_len;
  inputs.event_order_violations = result.event_order_violations;
  inputs.end_time = result.end_time;
  if (shape.active) {
    inputs.scenario_base_per_class = shape.base_per_class;
    inputs.scenario_handoff_lost = shape.handoff_lost;
  }
  inputs.gap_bound = gap_bound;
  return resilience::check_invariants(inputs);
}

ChaosPartial run_one(const Scenario& scenario,
                     const core::HybridConfig& config,
                     const ChaosOptions& options, std::size_t rep) {
  Scenario s = scenario;
  // Same decorrelation idiom as replicate_hybrid: per-replication workload
  // and server seeds derived from the replication index.
  s.seed = rng::SplitMix64::mix(scenario.seed + rep);
  core::HybridConfig c = config;
  c.seed = rng::SplitMix64::mix(s.seed ^ 0x5EEDCAFEULL);
  // The summary pools through merge_counters and the digest, and the
  // invariants read the gap Welford: no P² sketch is read, so skip them.
  c.tail_quantiles = false;

  Scenario::Built built = s.build();
  if (!metrics::exactly_equal(options.spike_factor, 1.0) &&
      options.spike_duration > 0.0) {
    built.trace = apply_arrival_spike(built.trace, options.spike_start,
                                      options.spike_duration,
                                      options.spike_factor);
  }
  ChaosPartial partial;
  partial.result = run_hybrid(built, c);
  partial.digest = serialize_result(partial.result);
  partial.invariants =
      check_run(partial.result, c, built.shape, options.gap_bound);
  partial.goodput = partial.result.overall().goodput_ratio();
  partial.total_cost = partial.result.total_prioritized_cost(built.population);
  partial.shape = std::move(built.shape);
  return partial;
}

}  // namespace

std::string serialize_result(const core::SimResult& result) {
  std::string out = "sr1";
  append_u64(out, result.per_class.size());
  for (const metrics::ClassStats& s : result.per_class) {
    append_welford(out, s.wait);
    append_welford(out, s.gap);
    append_u64(out, s.arrived);
    append_u64(out, s.served);
    append_u64(out, s.served_push);
    append_u64(out, s.served_pull);
    append_u64(out, s.blocked);
    append_u64(out, s.abandoned);
    append_u64(out, s.corrupted);
    append_u64(out, s.retries);
    append_u64(out, s.shed);
    append_u64(out, s.lost);
    append_u64(out, s.rejected);
    append_u64(out, s.stormed);
  }
  append_f64(out, result.end_time);
  append_u64(out, result.push_transmissions);
  append_u64(out, result.pull_transmissions);
  append_u64(out, result.blocked_transmissions);
  append_u64(out, result.corrupted_push_transmissions);
  append_u64(out, result.corrupted_pull_transmissions);
  append_f64(out, result.mean_pull_queue_len);
  append_u64(out, result.max_pull_queue_len);
  append_u64(out, result.crashes);
  append_f64(out, result.total_downtime);
  append_u64(out, result.storm_rerequests);
  append_u64(out, result.largest_storm);
  append_welford(out, result.recovery_latency);
  append_u64(out, result.overload_transitions.size());
  for (const resilience::OverloadTransition& t : result.overload_transitions) {
    append_f64(out, t.time);
    append_u64(out, static_cast<std::uint64_t>(t.from));
    append_u64(out, static_cast<std::uint64_t>(t.to));
  }
  append_u64(out, static_cast<std::uint64_t>(result.max_overload_level));
  append_u64(out, result.event_order_violations);
  return out;
}

workload::Trace apply_arrival_spike(const workload::Trace& trace, double start,
                                    double duration, double factor) {
  if (!(factor > 0.0) || !std::isfinite(factor)) {
    throw std::invalid_argument(
        "apply_arrival_spike: factor must be positive and finite");
  }
  if (!(start >= 0.0) || !(duration >= 0.0) || !std::isfinite(start) ||
      !std::isfinite(duration)) {
    throw std::invalid_argument(
        "apply_arrival_spike: start and duration must be non-negative and "
        "finite");
  }
  if (metrics::exactly_equal(factor, 1.0) || duration <= 0.0) {
    return trace;
  }
  const double compressed = duration / factor;
  std::vector<workload::Request> warped(trace.requests().begin(),
                                        trace.requests().end());
  for (workload::Request& r : warped) {
    if (r.arrival <= start) continue;
    if (r.arrival < start + duration) {
      r.arrival = start + (r.arrival - start) / factor;
    } else {
      r.arrival -= duration - compressed;
    }
  }
  return workload::Trace(std::move(warped));
}

ChaosSummary run_chaos(const Scenario& scenario,
                       const core::HybridConfig& config,
                       const ChaosOptions& options) {
  if (options.replications == 0) {
    throw std::invalid_argument("run_chaos: need >= 1 replication");
  }
  scenario.validate();
  config.resilience.validate();
  const std::vector<ChaosPartial> partials = runtime::sweep(
      options.replications,
      [&](std::size_t rep) { return run_one(scenario, config, options, rep); },
      {.jobs = scenario.jobs, .reporter = options.reporter, .label = "chaos"});

  // Merge strictly in replication-index order.
  ChaosSummary summary;
  summary.replications = options.replications;
  summary.per_class.resize(partials.front().result.per_class.size());
  for (const ChaosPartial& partial : partials) {
    const core::SimResult& r = partial.result;
    if (r.per_class.size() != summary.per_class.size()) {
      throw std::runtime_error("run_chaos: replications disagree on classes");
    }
    for (std::size_t cls = 0; cls < summary.per_class.size(); ++cls) {
      summary.per_class[cls].merge_counters(r.per_class[cls]);
    }
    summary.overall_delay.add(r.overall().wait.mean());
    summary.total_cost.add(partial.total_cost);
    summary.goodput.add(partial.goodput);
    summary.crashes += r.crashes;
    summary.total_downtime += r.total_downtime;
    summary.handoff_rehomed += partial.shape.rehomed;
    summary.handoff_lost += partial.shape.total_lost();
    summary.storm_rerequests += r.storm_rerequests;
    summary.largest_storm = std::max(summary.largest_storm, r.largest_storm);
    summary.recovery_latency.merge(r.recovery_latency);
    summary.overload_transitions += r.overload_transitions.size();
    if (static_cast<int>(r.max_overload_level) >
        static_cast<int>(summary.max_overload_level)) {
      summary.max_overload_level = r.max_overload_level;
    }
    summary.invariants.merge(partial.invariants);
  }

  if (options.verify_replay) {
    // Bit-identical replay: replication 0 rerun from scratch must
    // reproduce its digest exactly.
    const ChaosPartial replayed = run_one(scenario, config, options, 0);
    summary.replay_identical = replayed.digest == partials.front().digest;
    summary.invariants.checks.push_back(resilience::InvariantCheck{
        "bit-identical-replay", summary.replay_identical,
        summary.replay_identical
            ? "replication 0 reran identically"
            : "replication 0 diverged on rerun — nondeterminism"});
  }
  return summary;
}

}  // namespace pushpull::exp
