#include "exp/replication.hpp"

#include <bit>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/export.hpp"
#include "rng/splitmix64.hpp"
#include "runtime/sweep.hpp"

namespace pushpull::exp {

namespace {

/// One replication's pooled metrics, each a single-sample Welford. Partials
/// are produced by workers in any order and merged into the summary strictly
/// by replication index, which keeps parallel runs bit-identical to serial
/// ones (the summary sees the same merge sequence either way).
struct RepPartial {
  metrics::Welford overall_delay;
  std::vector<metrics::Welford> class_delay;
  metrics::Welford total_cost;
  metrics::Welford blocking;
  metrics::Welford pull_queue_len;
  /// Rendered obs JSONL chunk of this replication (lines tagged "rep":N);
  /// empty when observation is off. Travels inside the checkpoint payload
  /// so a resumed run reproduces the merged trace byte-for-byte.
  std::string obs_chunk;
};

RepPartial run_one(const Scenario& scenario, const core::HybridConfig& config,
                   const obs::ObsConfig& obs_config, std::size_t rep) {
  Scenario s = scenario;
  // Decorrelate replications without risking accidental seed reuse.
  s.seed = rng::SplitMix64::mix(scenario.seed + rep);
  core::HybridConfig c = config;
  c.seed = rng::SplitMix64::mix(s.seed ^ 0x5EEDCAFEULL);
  c.obs = obs_config;
  // The summary pools means, and P² sketches cannot merge: skip them.
  c.tail_quantiles = false;

  const auto built = s.build();
  if (built.population.num_classes() != scenario.num_classes) {
    // class_delay is indexed by the *built* population's class ids; a
    // scenario whose build() disagrees with its declared num_classes would
    // silently mis-slot (or overrun) the per-class pools.
    throw std::runtime_error(
        "replicate_hybrid: scenario declares " +
        std::to_string(scenario.num_classes) +
        " classes but the built population has " +
        std::to_string(built.population.num_classes()));
  }
  const ObservedRun observed = run_hybrid_observed(built, c);
  const core::SimResult& result = observed.result;

  RepPartial partial;
  if (obs_config.enabled) {
    partial.obs_chunk = obs::render_chunk(observed.obs, rep);
  }
  partial.overall_delay.add(result.overall().wait.mean());
  partial.class_delay.resize(built.population.num_classes());
  for (workload::ClassId cls = 0; cls < built.population.num_classes();
       ++cls) {
    partial.class_delay[cls].add(result.mean_wait(cls));
  }
  partial.total_cost.add(result.total_prioritized_cost(built.population));
  partial.blocking.add(result.overall().blocking_ratio());
  partial.pull_queue_len.add(result.mean_pull_queue_len);
  return partial;
}

// --- checkpoint payload format -------------------------------------------
// "rp1 <num_classes>" followed by the Welford states of overall_delay, each
// class_delay, total_cost, blocking and pull_queue_len, each serialized as
// "<count> <mean> <m2> <sum> <min> <max>" with hexfloat doubles. Hexfloat
// round-trips bit-exactly, which is what keeps a resumed summary identical
// to an uninterrupted one.

void append_welford(std::string& out, const metrics::Welford& w) {
  out += ' ';
  out += std::to_string(w.count());
  for (const double v : {w.mean(), w.m2(), w.sum(), w.min(), w.max()}) {
    out += ' ';
    out += runtime::encode_double(v);
  }
}

metrics::Welford read_welford(std::istringstream& in) {
  std::uint64_t count = 0;
  std::string mean, m2, sum, min, max;
  if (!(in >> count >> mean >> m2 >> sum >> min >> max)) {
    throw std::runtime_error(
        "replicate_hybrid: truncated checkpoint payload");
  }
  try {
    return metrics::Welford::restore(
        count, runtime::decode_double(mean), runtime::decode_double(m2),
        runtime::decode_double(sum), runtime::decode_double(min),
        runtime::decode_double(max));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(
        std::string("replicate_hybrid: corrupt checkpoint payload: ") +
        e.what());
  }
}

// A payload from a traced run additionally carries the rendered trace
// chunk after a " tr1\n" marker. The stats section never contains a
// newline, so the first newline in a payload — if any — is the marker's,
// and splitting on the first " tr1\n" is unambiguous. (RunReporter escapes
// newlines inside JSONL records and CheckpointStore unescapes them, so the
// multi-line chunk round-trips through a progress file intact.)
constexpr std::string_view kTraceMarker = " tr1\n";

std::string serialize_partial(const RepPartial& partial) {
  std::string out = "rp1 " + std::to_string(partial.class_delay.size());
  append_welford(out, partial.overall_delay);
  for (const auto& w : partial.class_delay) append_welford(out, w);
  append_welford(out, partial.total_cost);
  append_welford(out, partial.blocking);
  append_welford(out, partial.pull_queue_len);
  if (!partial.obs_chunk.empty()) {
    out += kTraceMarker;
    out += partial.obs_chunk;
  }
  return out;
}

/// Parses one payload of a scenario with `num_classes` classes. The class
/// count is checked before anything is sized by it, so a corrupt count is
/// rejected instead of allocating.
RepPartial parse_partial(const std::string& payload,
                         std::size_t num_classes) {
  const std::size_t marker = payload.find(kTraceMarker);
  std::istringstream in(marker == std::string::npos
                            ? payload
                            : payload.substr(0, marker));
  std::string tag;
  if (!(in >> tag) || tag != "rp1") {
    throw std::runtime_error(
        "replicate_hybrid: unrecognized checkpoint payload (expected 'rp1', "
        "got '" + tag + "') — was the progress file produced by an older "
        "version or a different run?");
  }
  std::string classes;
  if (!(in >> classes) || classes != std::to_string(num_classes)) {
    throw std::runtime_error(
        "replicate_hybrid: checkpoint payload has '" + classes +
        "' classes but the scenario has " + std::to_string(num_classes));
  }
  RepPartial partial;
  partial.overall_delay = read_welford(in);
  partial.class_delay.resize(num_classes);
  for (auto& w : partial.class_delay) w = read_welford(in);
  partial.total_cost = read_welford(in);
  partial.blocking = read_welford(in);
  partial.pull_queue_len = read_welford(in);
  if (marker != std::string::npos) {
    partial.obs_chunk = payload.substr(marker + kTraceMarker.size());
  }
  return partial;
}

}  // namespace

std::uint64_t replication_fingerprint(const Scenario& scenario,
                                      const core::HybridConfig& config,
                                      std::size_t replications) {
  // SplitMix64 absorption chain: each field perturbs the state through the
  // full mixer, so swapping two fields or dropping one changes the hash.
  // Doubles enter via their bit pattern — two configs fingerprint equal
  // exactly when every double is bit-identical, matching the bit-exact
  // resume guarantee the fingerprint protects.
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  const auto mix = [&h](std::uint64_t v) { h = rng::SplitMix64::mix(h ^ v); };
  const auto mix_d = [&mix](double v) { mix(std::bit_cast<std::uint64_t>(v)); };

  mix(static_cast<std::uint64_t>(scenario.num_items));
  mix_d(scenario.theta);
  mix_d(scenario.arrival_rate);
  mix(static_cast<std::uint64_t>(scenario.num_classes));
  mix_d(scenario.class_zipf_theta);
  mix(scenario.min_length);
  mix(scenario.max_length);
  mix_d(scenario.mean_length);
  mix(scenario.seed);
  mix(static_cast<std::uint64_t>(scenario.num_requests));
  // scenario.jobs deliberately excluded: worker count never changes numbers.
  // Preset fields absorb only when a preset is active, so every
  // pre-scenario progress file keeps its fingerprint and resumes cleanly.
  if (scenario.preset != pushpull::scenario::Preset::kNone) {
    mix(0x5CE4A210ULL);
    mix(static_cast<std::uint64_t>(scenario.preset));
    mix_d(scenario.preset_intensity);
  }

  mix(static_cast<std::uint64_t>(config.cutoff));
  mix_d(config.alpha);
  mix(static_cast<std::uint64_t>(config.pull_policy));
  mix(static_cast<std::uint64_t>(config.push_policy));
  mix_d(config.aging_rate);
  mix_d(config.total_bandwidth);
  mix(static_cast<std::uint64_t>(config.bandwidth_fractions.size()));
  for (const double f : config.bandwidth_fractions) mix_d(f);
  mix_d(config.mean_bandwidth_demand);
  mix_d(config.mean_patience);
  mix(config.seed);
  mix_d(config.warmup_fraction);

  const fault::FaultConfig& fault = config.fault;
  mix(static_cast<std::uint64_t>(fault.enabled));
  mix_d(fault.channel.p_good_to_bad);
  mix_d(fault.channel.p_bad_to_good);
  mix_d(fault.channel.corrupt_good);
  mix_d(fault.channel.corrupt_bad);
  mix(fault.retry.max_retries);
  mix_d(fault.retry.backoff_base);
  mix_d(fault.retry.backoff_multiplier);
  mix_d(fault.retry.max_backoff);
  mix(static_cast<std::uint64_t>(fault.queue_capacity));
  mix(static_cast<std::uint64_t>(fault.shed_policy));

  const resilience::CrashConfig& crash = config.resilience.crash;
  mix(static_cast<std::uint64_t>(crash.enabled));
  mix_d(crash.rate);
  mix_d(crash.downtime);
  mix(static_cast<std::uint64_t>(crash.recovery));
  mix_d(crash.snapshot_interval);
  mix_d(crash.rerequest_timeout);
  mix_d(crash.storm_spread);
  mix(static_cast<std::uint64_t>(crash.max_crashes));

  const resilience::OverloadConfig& overload = config.resilience.overload;
  mix(static_cast<std::uint64_t>(overload.enabled));
  mix_d(overload.eval_interval);
  mix_d(overload.ewma_alpha);
  mix_d(overload.blocking_ref);
  mix(static_cast<std::uint64_t>(overload.capacity_ref));
  mix(static_cast<std::uint64_t>(overload.cutoff_step));
  for (const double v : overload.enter) mix_d(v);
  for (const double v : overload.exit) mix_d(v);

  mix(static_cast<std::uint64_t>(replications));
  return h;
}

ReplicationSummary replicate_hybrid(const Scenario& scenario,
                                    const core::HybridConfig& config,
                                    std::size_t replications,
                                    const ReplicateOptions& options) {
  if (replications == 0) {
    throw std::invalid_argument("replicate_hybrid: need >= 1 replication");
  }
  const std::uint64_t fingerprint =
      (options.reporter != nullptr || options.resume != nullptr)
          ? replication_fingerprint(scenario, config, replications)
          : 0;
  if (options.resume) {
    // Refuse to splice a checkpoint from a different experiment; a file
    // without a context record (pre-versioning) is accepted unchecked.
    options.resume->require(kReplicationSchema, fingerprint);
  }
  if (options.reporter) {
    options.reporter->run_context(kReplicationSchema, fingerprint);
  }
  const bool tracing = options.obs.enabled;
  const std::vector<RepPartial> partials = runtime::sweep(
      replications,
      [&](std::size_t rep) {
        if (options.resume) {
          if (const std::string* payload = options.resume->find(rep)) {
            RepPartial restored =  // done pre-crash
                parse_partial(*payload, scenario.num_classes);
            // A payload written without tracing cannot contribute a trace
            // chunk; recompute the replication (deterministic, so the
            // stats are bit-identical to the restored ones) instead of
            // emitting a merged trace with a silent hole.
            if (!tracing || !restored.obs_chunk.empty()) return restored;
          }
        }
        RepPartial partial = run_one(scenario, config, options.obs, rep);
        if (options.reporter) {
          options.reporter->job_payload(rep, serialize_partial(partial));
        }
        return partial;
      },
      {.jobs = scenario.jobs,
       .reporter = options.reporter,
       .label = "replicate"});

  // Merge in replication-index order — never completion order.
  ReplicationSummary summary;
  summary.replications = replications;
  summary.class_delay.resize(partials.front().class_delay.size());
  for (const RepPartial& partial : partials) {
    if (partial.class_delay.size() != summary.class_delay.size()) {
      throw std::runtime_error(
          "replicate_hybrid: replications disagree on class count");
    }
    summary.overall_delay.merge(partial.overall_delay);
    for (std::size_t cls = 0; cls < summary.class_delay.size(); ++cls) {
      summary.class_delay[cls].merge(partial.class_delay[cls]);
    }
    summary.total_cost.merge(partial.total_cost);
    summary.blocking.merge(partial.blocking);
    summary.pull_queue_len.merge(partial.pull_queue_len);
  }
  if (tracing && options.trace_out != nullptr) {
    // Replication-index order, like the stats merge: the file is
    // bit-identical for any jobs value.
    *options.trace_out << obs::render_header(options.obs.categories,
                                             options.obs.trace_capacity);
    for (const RepPartial& partial : partials) {
      *options.trace_out << partial.obs_chunk;
    }
    options.trace_out->flush();
  }
  return summary;
}

}  // namespace pushpull::exp
