#include "workloads.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <streambuf>
#include <utility>

#include "bench_common.hpp"
#include "core/pull_queue.hpp"
#include "des/event_queue.hpp"
#include "exp/replication.hpp"
#include "exp/scenario.hpp"
#include "resilience/invariants.hpp"
#include "rng/splitmix64.hpp"
#include "runtime/checkpoint.hpp"
#include "sched/pull/policy.hpp"
#include "serve/serve.hpp"

namespace pushpull::perf {

namespace {

constexpr std::size_t kReplications = 16;
constexpr std::size_t kGridPoints = std::size(bench::kCutoffGrid);

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- correctness -----------------------------------------------------------

/// One run's digest: per-class outcome counts, transmissions, end time and
/// pull-queue length, and the mean delay and prioritized cost as hex
/// floats. Two runs with equal digests agree bit-for-bit on every number
/// the paper reports.
std::string digest(const std::vector<metrics::ClassStats>& per_class,
                   std::uint64_t push_tx, std::uint64_t pull_tx,
                   double end_time, double mean_queue,
                   std::size_t max_queue,
                   const workload::ClientPopulation& population) {
  std::ostringstream out;
  metrics::ClassStats all;
  double cost = 0.0;
  for (std::size_t c = 0; c < per_class.size(); ++c) {
    const metrics::ClassStats& s = per_class[c];
    out << "class " << c << " arrived " << s.arrived << " served " << s.served
        << " abandoned " << s.abandoned << " shed " << s.shed << " lost "
        << s.lost << " rejected " << s.rejected << "\n";
    all.merge_counters(s);
    cost += population.priority(static_cast<workload::ClassId>(c)) *
            s.wait.mean();
  }
  out << "push_tx " << push_tx << " pull_tx " << pull_tx << " end "
      << runtime::encode_double(end_time) << " queue "
      << runtime::encode_double(mean_queue) << " peak " << max_queue << "\n"
      << "mean_delay " << runtime::encode_double(all.wait.mean()) << " cost "
      << runtime::encode_double(cost) << "\n";
  return out.str();
}

std::string digest(const core::SimResult& r,
                   const workload::ClientPopulation& population) {
  return digest(r.per_class, r.push_transmissions, r.pull_transmissions,
                r.end_time, r.mean_pull_queue_len, r.max_pull_queue_len,
                population);
}

std::string digest(const serve::ServeReport& r,
                   const workload::ClientPopulation& population) {
  return digest(r.per_class, r.push_transmissions, r.pull_transmissions,
                r.end_time, r.mean_pull_queue_len, r.max_pull_queue_len,
                population);
}

/// The machine-checked invariants of a finished DES run (conservation per
/// class and across scenario handoff, queue cap, event order); empty when
/// all hold.
std::string audit(const core::SimResult& result,
                  const core::HybridConfig& config,
                  const scenario::ShapeSummary& shape) {
  resilience::InvariantInputs inputs;
  inputs.per_class = result.per_class;
  inputs.queue_capacity = config.fault.queue_capacity;
  inputs.max_queue_len = result.max_pull_queue_len;
  inputs.event_order_violations = result.event_order_violations;
  inputs.end_time = result.end_time;
  if (shape.active) {
    inputs.scenario_base_per_class = shape.base_per_class;
    inputs.scenario_handoff_lost = shape.handoff_lost;
  }
  const resilience::InvariantReport report =
      resilience::check_invariants(inputs);
  return report.all_pass() ? std::string() : resilience::format_report(report);
}

// --- layer replays ---------------------------------------------------------

/// Feeds the pull-item requests of `built` through a standalone
/// core::PullQueue under the run's own policy, extracting `per_add` entries
/// per request added (the run's measured extracts / enters). Returns the
/// extractions made; the adds are part of the timed work.
std::uint64_t replay_pull(const exp::Scenario::Built& built,
                          const core::HybridConfig& config, double per_add) {
  core::PullQueue queue;
  const auto policy =
      sched::make_pull_policy(config.pull_policy, config.alpha);
  sched::PullContext ctx;
  double credit = 0.0;
  std::uint64_t extracts = 0;
  for (const workload::Request& r : built.trace.requests()) {
    if (r.item < config.cutoff) continue;
    queue.add(r, built.population.priority(r.cls), built.catalog.length(r.item),
              built.catalog.probability(r.item));
    // Capped, so an empty queue cannot bank a burst of extractions.
    credit = std::min(credit + per_add, 2.0);
    for (; credit >= 1.0 && !queue.empty(); credit -= 1.0) {
      ctx.now = r.arrival;
      ctx.expected_queue_len = static_cast<double>(queue.total_requests());
      (void)queue.extract_best(*policy, ctx);
      ++extracts;
    }
  }
  return extracts;
}

/// Feeds the run's event mix through a standalone des::EventQueue, the
/// Simulator's default backend: every arrival pre-loaded (the server
/// schedules them up front), then pops with the run's measured rates of
/// follow-up schedules and cancellations interleaved. Follow-ups land up to
/// 4 broadcast units ahead, at hash-derived offsets. Returns the
/// push/pop/cancel operations made.
std::uint64_t replay_events(const workload::Trace& trace,
                            const obs::CounterSet& counters,
                            std::uint64_t seed) {
  const std::uint64_t arrivals = trace.size();
  const std::uint64_t followups = counters.des_scheduled > arrivals
                                      ? counters.des_scheduled - arrivals
                                      : 0;
  const double per_pop = ratio(static_cast<double>(followups),
                               static_cast<double>(counters.des_dispatched));
  const double cancels_per_followup =
      ratio(static_cast<double>(counters.des_cancelled),
            static_cast<double>(followups));

  des::EventQueue queue;
  des::EventId next_id = 0;
  for (const workload::Request& r : trace.requests()) {
    queue.push(des::Event{r.arrival, next_id++, [] {}});
  }
  std::uint64_t ops = arrivals;
  std::uint64_t scheduled = 0;
  double schedule_credit = 0.0;
  double cancel_credit = 0.0;
  while (!queue.empty()) {
    const des::Event event = queue.pop();
    ++ops;
    schedule_credit += per_pop;
    for (; schedule_credit >= 1.0 && scheduled < followups;
         schedule_credit -= 1.0) {
      const double u =
          static_cast<double>(rng::SplitMix64::mix(seed ^ next_id) >> 11) *
          0x1.0p-53;
      const des::EventId id = next_id++;
      queue.push(des::Event{event.time + 4.0 * u, id, [] {}});
      ++scheduled;
      ++ops;
      // A cancelled follow-up is a timer disarmed before it fires.
      cancel_credit += cancels_per_followup;
      if (cancel_credit >= 1.0) {
        cancel_credit -= 1.0;
        (void)queue.cancel(id);
        ++ops;
      }
    }
  }
  return ops;
}

/// Discards what is written through it, counting the bytes: the journal
/// encoder's output without the file.
class CountingBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char_type*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }

 private:
  std::uint64_t bytes_ = 0;
};

// --- the DES engine's layers -----------------------------------------------

/// Per-layer numbers of the DES engine, summed over a traced run's samples.
/// Each sample runs once untraced and once observed, checks that the two
/// agree and that the invariants hold, then replays its pull-queue and
/// event-queue work in isolation.
class CoreTally {
 public:
  /// Returns the untraced run's digest.
  std::string sample(const exp::Scenario::Built& built,
                     const core::HybridConfig& config, SpanLog& spans,
                     Checks& checks) {
    core::SimResult plain;
    run_s_ += spans.span("exp::run_hybrid",
                         [&] { plain = exp::run_hybrid(built, config); });
    core::HybridConfig observed_config = config;
    observed_config.obs.enabled = true;
    exp::ObservedRun observed;
    traced_s_ += spans.span("exp::run_hybrid_observed", [&] {
      observed = exp::run_hybrid_observed(built, observed_config);
    });
    std::string untraced = digest(plain, built.population);
    checks.expect(digest(observed.result, built.population) == untraced,
                  "traced run's digest differs from the untraced run's");
    const std::string violation = audit(plain, config, built.shape);
    checks.expect(violation.empty(), "invariants broken:\n" + violation);

    const obs::CounterSet& c = observed.obs.counters;
    add(c);
    emitted_ += observed.obs.emitted;
    const double per_add = ratio(static_cast<double>(c.queue_extracts),
                                 static_cast<double>(c.queue_enter));
    pull_replay_s_ += spans.span("core::PullQueue", [&] {
      pull_replay_extracts_ += replay_pull(built, config, per_add);
    });
    event_replay_s_ += spans.span("des::EventQueue", [&] {
      event_replay_ops_ += replay_events(built.trace, c, config.seed);
    });
    return untraced;
  }

  /// Untraced run_hybrid seconds so far.
  [[nodiscard]] double run_s() const noexcept { return run_s_; }

  void write(Layers& layers) const {
    const auto d = [](std::uint64_t n) { return static_cast<double>(n); };
    layers["core.run_s"] = run_s_;
    layers["core.ns_per_event"] = ratio(run_s_ * 1e9, d(sum_.des_dispatched));
    layers["core.pull_enters"] = d(sum_.queue_enter);
    layers["core.pull_extracts"] = d(sum_.queue_extracts);
    layers["core.pull_queue_peak"] = d(sum_.queue_peak);
    layers["core.push_tx"] = d(sum_.push_tx);
    layers["core.pull_tx"] = d(sum_.pull_tx);
    layers["core.abandoned"] = d(sum_.server_abandoned);
    layers["core.rejected"] = d(sum_.server_rejected);
    layers["core.pull_replay_ns_per_extract"] =
        ratio(pull_replay_s_ * 1e9, d(pull_replay_extracts_));
    layers["des.events_scheduled"] = d(sum_.des_scheduled);
    layers["des.events_dispatched"] = d(sum_.des_dispatched);
    layers["des.events_cancelled"] = d(sum_.des_cancelled);
    layers["des.useful_ratio"] =
        ratio(d(sum_.des_dispatched), d(sum_.des_scheduled));
    layers["des.replay_ns_per_op"] =
        ratio(event_replay_s_ * 1e9, d(event_replay_ops_));
    layers["fault.retries"] = d(sum_.fault_retries);
    layers["fault.corrupt_tx"] =
        d(sum_.fault_corrupt_push + sum_.fault_corrupt_pull);
    layers["fault.shed"] = d(sum_.fault_shed);
    layers["resilience.crashes"] = d(sum_.crash_count);
    layers["resilience.ladder_transitions"] = d(sum_.ladder_transitions);
    layers["obs.trace_overhead_pct"] = (ratio(traced_s_, run_s_) - 1.0) * 100.0;
    layers["obs.trace_events_emitted"] = d(emitted_);
  }

 private:
  void add(const obs::CounterSet& c) {
    sum_.des_scheduled += c.des_scheduled;
    sum_.des_dispatched += c.des_dispatched;
    sum_.des_cancelled += c.des_cancelled;
    sum_.queue_enter += c.queue_enter;
    sum_.queue_extracts += c.queue_extracts;
    sum_.queue_peak = std::max(sum_.queue_peak, c.queue_peak);
    sum_.push_tx += c.push_tx;
    sum_.pull_tx += c.pull_tx;
    sum_.server_abandoned += c.server_abandoned;
    sum_.server_rejected += c.server_rejected;
    sum_.fault_retries += c.fault_retries;
    sum_.fault_corrupt_push += c.fault_corrupt_push;
    sum_.fault_corrupt_pull += c.fault_corrupt_pull;
    sum_.fault_shed += c.fault_shed;
    sum_.crash_count += c.crash_count;
    sum_.ladder_transitions += c.ladder_transitions;
  }

  obs::CounterSet sum_;  // queue_peak holds the maximum, the rest sums
  std::uint64_t emitted_ = 0;
  double run_s_ = 0.0;
  double traced_s_ = 0.0;
  double pull_replay_s_ = 0.0;
  std::uint64_t pull_replay_extracts_ = 0;
  double event_replay_s_ = 0.0;
  std::uint64_t event_replay_ops_ = 0;
};

// --- workloads -------------------------------------------------------------

/// The paper's figures: the §5.1 scenario under Eq. 1 (α = 0.5) across the
/// cutoff grid, 16 replications per point on the runtime thread pool.
class PaperSweep final : public Workload {
 public:
  explicit PaperSweep(const Params& params) : jobs_(params.jobs) {
    scenario_.seed = params.seed;
    scenario_.num_requests = 100000 / params.scale;
    scenario_.jobs = params.jobs;
  }

  /// Builds the workload one replication starts from: the catalog,
  /// population and trace every replication rebuilds at its own seed.
  void setup() override {
    built_.reset();  // repeated set-ups never hold two builds at once
    built_.emplace(scenario_.build());
  }

  Rep run() override {
    std::string out;
    for (const std::size_t cutoff : bench::kCutoffGrid) {
      out += summary_line(cutoff, exp::replicate_hybrid(
                                      scenario_, config(cutoff), kReplications));
    }
    return Rep{scenario_.num_requests * kReplications * kGridPoints,
               std::move(out), {}};
  }

  std::string traced(SpanLog& spans, Layers& layers, Checks& checks) override {
    std::string sweep;
    double sweep_s = 0.0;
    for (const std::size_t cutoff : bench::kCutoffGrid) {
      sweep_s += spans.span("exp::replicate_hybrid", [&] {
        sweep += summary_line(cutoff, exp::replicate_hybrid(
                                          scenario_, config(cutoff),
                                          kReplications));
      });
    }
    // One replication per cutoff, sampled serially. The trace does not
    // depend on the cutoff, so one build serves every point.
    const double build_s =
        spans.span("exp::Scenario::build", [&] { setup(); });
    CoreTally tally;
    for (const std::size_t cutoff : bench::kCutoffGrid) {
      (void)tally.sample(*built_, config(cutoff), spans, checks);
    }
    tally.write(layers);
    layers["workload.build_s"] = build_s;
    layers["workload.requests"] = static_cast<double>(built_->trace.size());
    const double serial_s =
        static_cast<double>(kReplications) *
        (static_cast<double>(kGridPoints) * build_s + tally.run_s());
    const double workers =
        static_cast<double>(std::min(jobs_, kReplications));
    layers["runtime.parallel_efficiency"] = ratio(serial_s, workers * sweep_s);
    return sweep;
  }

 private:
  static core::HybridConfig config(std::size_t cutoff) {
    core::HybridConfig c;
    c.cutoff = cutoff;
    c.alpha = 0.5;
    c.pull_policy = sched::PullPolicyKind::kImportance;
    return c;
  }

  static std::string summary_line(std::size_t cutoff,
                                  const exp::ReplicationSummary& s) {
    std::ostringstream line;
    line << "cutoff " << cutoff << " delay "
         << runtime::encode_double(s.overall_delay.mean()) << " cost "
         << runtime::encode_double(s.total_cost.mean()) << " queue "
         << runtime::encode_double(s.pull_queue_len.mean()) << " class";
    for (const metrics::Welford& w : s.class_delay) {
      line << " " << runtime::encode_double(w.mean());
    }
    line << "\n";
    return std::move(line).str();
  }

  std::size_t jobs_;
  exp::Scenario scenario_;
  std::optional<exp::Scenario::Built> built_;
};

/// One serial DES run over a scenario built in setup (deep-pull and
/// chaos-mix).
class DesWorkload final : public Workload {
 public:
  DesWorkload(exp::Scenario scenario, core::HybridConfig config)
      : scenario_(std::move(scenario)), config_(std::move(config)) {}

  void setup() override {
    built_.reset();  // repeated set-ups never hold two builds at once
    built_.emplace(scenario_.build());
  }

  Rep run() override {
    const core::SimResult result = exp::run_hybrid(*built_, config_);
    return Rep{result.overall().arrived, digest(result, built_->population),
               audit(result, config_, built_->shape)};
  }

  std::string traced(SpanLog& spans, Layers& layers, Checks& checks) override {
    const double build_s =
        spans.span("exp::Scenario::build", [&] { setup(); });
    layers["workload.build_s"] = build_s;
    layers["workload.requests"] = static_cast<double>(built_->trace.size());
    if (scenario_.preset != scenario::Preset::kNone) {
      exp::Scenario stationary = scenario_;
      stationary.preset = scenario::Preset::kNone;
      const double stationary_s =
          spans.span("exp::Scenario::build[no-preset]",
                     [&] { (void)stationary.build(); });
      layers["scenario.shape_s"] = build_s - stationary_s;
    }
    CoreTally tally;
    std::string untraced = tally.sample(*built_, config_, spans, checks);
    tally.write(layers);
    return untraced;
  }

 private:
  exp::Scenario scenario_;
  core::HybridConfig config_;
  std::optional<exp::Scenario::Built> built_;
};

/// An accelerated live run journaled to disk as sv2, then the journal
/// loaded back and replayed through the DES.
class ServeJournal final : public Workload {
 public:
  explicit ServeJournal(const Params& params)
      : path_(params.out_dir + "/serve-journal.sv2"),
        plan_seed_(params.seed) {
    config_.accelerated = true;
    config_.target_qps = 5.0;
    config_.duration = 200000.0 / static_cast<double>(params.scale);
    // The catalog and server seed stay at the default, so every seed offers
    // load to the same item lengths; the seed varies the request plan.
    config_.seed = kDefaultSeed;
  }

  /// Builds the catalog, population and load plan.
  void setup() override {
    catalog_.emplace(config_.build_catalog());
    population_.emplace(config_.build_population());
    planned_.emplace(*catalog_, *population_, config_.target_qps,
                     config_.duration, plan_seed_);
  }

  Rep run() override {
    const serve::ServeReport live = record_to_journal();
    const serve::RecordedRun recorded = serve::load_trace_file(path_);
    const std::vector<core::SimResult> replayed = serve::replay(recorded);
    return Rep{live.arrivals, digest(replayed.front(), *population_),
               check(live, recorded, replayed.front())};
  }

  std::string traced(SpanLog& spans, Layers& layers, Checks& checks) override {
    const double plan_s = spans.span("serve::LoadDriver", [&] { setup(); });
    serve::ServeReport bare;
    const double loop_s =
        spans.span("serve::LiveServer::run_accelerated", [&] {
          serve::LoadDriver driver(planned_->plan());
          serve::LiveServer server(*catalog_, *population_, config_);
          bare = server.run_accelerated(driver, nullptr);
        });
    CountingBuf sink;
    const double encode_run_s =
        spans.span("serve::LiveServer::run_accelerated[ostream]", [&] {
          std::ostream out(&sink);
          serve::LoadDriver driver(planned_->plan());
          serve::TraceRecorder recorder(out, config_);
          serve::LiveServer server(*catalog_, *population_, config_);
          (void)server.run_accelerated(driver, &recorder);
        });
    serve::ServeReport live;
    const double journal_run_s =
        spans.span("serve::LiveServer::run_accelerated[journal]",
                   [&] { live = record_to_journal(); });
    serve::RecordedRun recorded;
    const double load_s = spans.span("serve::load_trace_file", [&] {
      recorded = serve::load_trace_file(path_);
    });
    std::vector<core::SimResult> replayed;
    const double replay_s = spans.span(
        "serve::replay", [&] { replayed = serve::replay(recorded); });

    const std::string violation = check(live, recorded, replayed.front());
    checks.expect(violation.empty(), violation);
    checks.expect(digest(bare, *population_) == digest(live, *population_),
                  "recording the journal changed the live run's outputs");

    // The DES engine's layers, measured on the replay of the recording.
    const exp::Scenario::Built built{*catalog_, *population_,
                                     recorded.trace(), {}};
    CoreTally tally;
    std::string untraced =
        tally.sample(built, recorded.config.hybrid(), spans, checks);
    checks.expect(untraced == digest(replayed.front(), *population_),
                  "run_hybrid over the recording differs from serve::replay");
    tally.write(layers);

    const double requests = static_cast<double>(live.arrivals);
    layers["workload.requests"] = requests;
    layers["serve.plan_s"] = plan_s;
    layers["serve.loop_s"] = loop_s;
    layers["serve.cq_posted"] = static_cast<double>(bare.cq_posted);
    layers["serve.cq_high_water"] = static_cast<double>(bare.cq_high_water);
    layers["serve.journal_encode_s"] = encode_run_s - loop_s;
    layers["serve.journal_sync_s"] = journal_run_s - encode_run_s;
    layers["serve.journal_bytes_per_request"] =
        ratio(static_cast<double>(sink.bytes()), requests);
    layers["serve.journal_records"] =
        static_cast<double>(recorded.requests.size() + recorded.decisions + 2);
    layers["serve.load_s"] = load_s;
    layers["serve.replay_s"] = replay_s;
    layers["serve.record_requests_per_s"] = ratio(requests, journal_run_s);
    layers["serve.replay_requests_per_s"] = ratio(requests, load_s + replay_s);
    return untraced;
  }

 private:
  serve::ServeReport record_to_journal() {
    serve::LoadDriver driver(planned_->plan());
    serve::JournalFile file(path_);
    serve::TraceRecorder recorder(file, config_);
    serve::LiveServer server(*catalog_, *population_, config_);
    return server.run_accelerated(driver, &recorder);
  }

  /// The serve path's invariants: the ledger balances and survives the
  /// journal, and the DES replay reproduces the live run bit-for-bit.
  std::string check(const serve::ServeReport& live,
                    const serve::RecordedRun& recorded,
                    const core::SimResult& replayed) const {
    std::string out;
    if (!live.ledger.balanced()) {
      out += "ledger does not balance: " + live.ledger.render_json() + "\n";
    }
    if (recorded.ledger.render_json() != live.ledger.render_json()) {
      out += "journal footer ledger differs from the live run's\n";
    }
    if (digest(live, *population_) != digest(replayed, *population_)) {
      out += "record->replay is not bit-exact\n";
    }
    return out + audit(replayed, recorded.config.hybrid(), {});
  }

  std::string path_;
  std::uint64_t plan_seed_;
  serve::ServeConfig config_;
  std::optional<catalog::Catalog> catalog_;
  std::optional<workload::ClientPopulation> population_;
  std::optional<serve::LoadDriver> planned_;
};

/// D = 10,000 items behind K = 50 under the Eq. 6 queue-aware importance:
/// thousands of pending entries and the O(n) selection scan.
std::unique_ptr<Workload> deep_pull(const Params& params) {
  exp::Scenario s;
  s.num_items = 10000;
  s.theta = 0.6;
  s.arrival_rate = 1.0;
  s.num_requests = 600000 / params.scale;
  s.seed = params.seed;
  core::HybridConfig c;
  c.cutoff = 50;
  c.alpha = 0.5;
  c.pull_policy = sched::PullPolicyKind::kImportanceQueueAware;
  c.seed = params.seed;
  return std::make_unique<DesWorkload>(s, c);
}

/// The §5.1 scenario with every failure mechanism on at once.
std::unique_ptr<Workload> chaos_mix(const Params& params) {
  exp::Scenario s;
  s.num_requests = 2000000 / params.scale;
  s.seed = params.seed;
  s.preset = scenario::Preset::kFlashcrowd;
  core::HybridConfig c;
  c.cutoff = 30;
  c.alpha = 0.5;
  c.seed = params.seed;
  c.mean_patience = 100.0;
  c.fault.enabled = true;
  c.fault.channel = fault::ChannelConfig{0.05, 0.30, 0.0, 0.5};
  c.fault.retry.max_retries = 3;
  c.fault.queue_capacity = 200;
  c.fault.shed_policy = fault::ShedPolicy::kDropLowestPriority;
  c.resilience.crash.enabled = true;
  c.resilience.crash.rate = 0.001;
  c.resilience.crash.recovery = resilience::RecoveryMode::kWarm;
  c.resilience.overload.enabled = true;
  return std::make_unique<DesWorkload>(s, c);
}

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        const Params& params) {
  if (name == "paper-sweep") return std::make_unique<PaperSweep>(params);
  if (name == "deep-pull") return deep_pull(params);
  if (name == "chaos-mix") return chaos_mix(params);
  if (name == "serve-journal") return std::make_unique<ServeJournal>(params);
  return nullptr;
}

}  // namespace pushpull::perf
