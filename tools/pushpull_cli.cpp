// pushpull — command-line driver for the hybrid-scheduling library.
//
//   pushpull simulate  [--theta T] [--alpha A] [--cutoff K] [--requests N]
//                      [--seed S] [--policy NAME] [--bandwidth B]
//                      [--demand D] [--patience P] [--csv]
//   pushpull optimize  [--theta T] [--alpha A] [--step STEP] [--analytic]
//   pushpull model     [--theta T] [--alpha A] [--cutoff K]
//   pushpull replicate [--theta T] [--alpha A] [--cutoff K] [--reps R]
//                      [--jobs N] [--progress FILE] [--resume]
//   pushpull trace     [--out FILE] [--trace FILE] [--requests N] [--seed S]
//
// All commands run the paper's §5.1 scenario (D = 100 items, λ' = 5,
// lengths 1..5 mean 2, three classes) with the given overrides. Fault
// injection (`--fault*`, `--queue-cap`, `--shed`) applies wherever the
// hybrid server runs, and `--trace FILE` records a deterministic sim-time
// event trace (JSONL) wherever it does; see `pushpull help`.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "lint.hpp"
#include "report.hpp"
#include "core/cutoff_optimizer.hpp"
#include "core/hybrid_server.hpp"
#include "exp/chaos.hpp"
#include "exp/cli.hpp"
#include "exp/replication.hpp"
#include "fault/fault_config.hpp"
#include "metrics/sorted_view.hpp"
#include "obs/category.hpp"
#include "obs/config.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "resilience/invariants.hpp"
#include "resilience/resilience_config.hpp"
#include "rng/splitmix64.hpp"
#include "scenario/presets.hpp"
#include "scenario/shaper.hpp"
#include "scenario/timeline.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/run_reporter.hpp"
#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "exp/table.hpp"
#include "queueing/access_time.hpp"
#include "serve/serve.hpp"
#include "uplink/slotted_aloha.hpp"
#include "workload/drifting_generator.hpp"
#include "workload/request_generator.hpp"

namespace {

using namespace pushpull;

exp::Scenario scenario_from(const exp::ArgParser& args) {
  exp::Scenario s;
  s.theta = args.get_double("theta", s.theta);
  s.num_items = args.get_size("items", s.num_items);
  s.arrival_rate = args.get_double("rate", s.arrival_rate);
  s.num_requests = args.get_size("requests", 50000);
  s.seed = args.get_u64("seed", s.seed);
  s.jobs = args.get_jobs("jobs");
  s.preset = pushpull::scenario::parse_preset(
      args.get_string("scenario", "none"));
  s.preset_intensity = args.get_positive_double("scenario-intensity", 1.0);
  return s;
}

sched::PullPolicyKind policy_from(const std::string& name) {
  for (auto kind :
       {sched::PullPolicyKind::kFcfs, sched::PullPolicyKind::kMrf,
        sched::PullPolicyKind::kStretch, sched::PullPolicyKind::kPriority,
        sched::PullPolicyKind::kRxw, sched::PullPolicyKind::kLwf,
        sched::PullPolicyKind::kImportance,
        sched::PullPolicyKind::kImportanceQueueAware}) {
    if (name == sched::to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown pull policy: " + name);
}

fault::FaultConfig fault_from(const exp::ArgParser& args) {
  fault::FaultConfig f;
  f.enabled = args.has("fault");
  f.channel.p_good_to_bad = args.get_double("fault-p-gb", 0.05);
  f.channel.p_bad_to_good = args.get_double("fault-p-bg", 0.30);
  f.channel.corrupt_good = args.get_double("fault-corrupt-good", 0.0);
  f.channel.corrupt_bad = args.get_double("fault-corrupt-bad", 0.5);
  f.retry.max_retries =
      static_cast<std::uint32_t>(args.get_size("fault-retries", 3));
  f.retry.backoff_base = args.get_double("fault-backoff", 1.0);
  f.retry.backoff_multiplier = args.get_double("fault-backoff-mult", 2.0);
  f.queue_capacity = args.get_size("queue-cap", 0);
  f.shed_policy = fault::parse_shed_policy(args.get_string("shed", "tail"));
  f.validate();
  return f;
}

resilience::ResilienceConfig resilience_from(const exp::ArgParser& args) {
  resilience::ResilienceConfig r;
  r.crash.rate = args.get_double("crash-rate", 0.0);
  r.crash.enabled = r.crash.rate > 0.0;
  r.crash.downtime = args.get_double("crash-downtime", 50.0);
  r.crash.recovery =
      resilience::parse_recovery_mode(args.get_string("recovery", "cold"));
  r.crash.snapshot_interval = args.get_double("snapshot-interval", 100.0);
  r.crash.rerequest_timeout = args.get_double("rerequest-timeout", 20.0);
  r.crash.storm_spread = args.get_double("storm-spread", 10.0);
  r.crash.max_crashes = args.get_size("max-crashes", 64);
  r.overload.enabled = args.has("ladder");
  r.overload.eval_interval = args.get_double("ladder-interval", 5.0);
  r.overload.capacity_ref = args.get_size("ladder-capacity", 64);
  r.overload.cutoff_step = args.get_size("ladder-cutoff-step", 10);
  r.validate();
  return r;
}

// Observability is keyed off `--trace FILE`: no flag, no observer, and the
// simulation output is bit-identical to a build without the obs layer.
obs::ObsConfig obs_from(const exp::ArgParser& args) {
  obs::ObsConfig o;
  o.enabled = args.has("trace");
  o.categories =
      obs::parse_categories(args.get_string("trace-categories", "all"));
  o.trace_capacity = args.get_size("trace-cap", o.trace_capacity);
  o.validate();
  return o;
}

int write_trace_file(const std::string& path, const obs::ObsReport& report,
                     const char* cmd) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << cmd << ": cannot open " << path << "\n";
    return 2;
  }
  out << obs::render_header(report.categories, report.trace_capacity);
  out << obs::render_chunk(report, obs::kNoRep);
  std::cout << "wrote " << report.events.size() << " trace events ("
            << report.emitted << " emitted, " << report.dropped
            << " dropped) to " << path << "\n";
  return 0;
}

core::HybridConfig config_from(const exp::ArgParser& args) {
  core::HybridConfig config;
  config.cutoff = args.get_size("cutoff", 40);
  config.alpha = args.get_double("alpha", 0.5);
  config.pull_policy =
      policy_from(args.get_string("policy", "importance"));
  config.total_bandwidth = args.get_double("bandwidth", 0.0);
  config.mean_bandwidth_demand = args.get_double("demand", 1.0);
  config.mean_patience = args.get_double("patience", 0.0);
  config.seed = args.get_u64("seed", 1);
  config.fault = fault_from(args);
  config.resilience = resilience_from(args);
  return config;
}

// Options shared by scenario_from / config_from / print_table; each command
// passes these plus its own extras to require_known so a typo fails with a
// one-line diagnostic instead of silently running the default experiment.
const std::initializer_list<std::string_view> kScenarioOpts = {
    "theta", "items", "rate", "requests", "seed", "jobs", "csv",
    "scenario", "scenario-intensity"};
const std::initializer_list<std::string_view> kConfigOpts = {
    "theta", "items", "rate", "requests", "seed", "jobs", "csv",
    "scenario", "scenario-intensity",
    "cutoff", "alpha", "policy", "bandwidth", "demand", "patience",
    "fault", "fault-p-gb", "fault-p-bg", "fault-corrupt-good",
    "fault-corrupt-bad", "fault-retries", "fault-backoff",
    "fault-backoff-mult", "queue-cap", "shed",
    "crash-rate", "crash-downtime", "recovery", "snapshot-interval",
    "rerequest-timeout", "storm-spread", "max-crashes",
    "ladder", "ladder-interval", "ladder-capacity", "ladder-cutoff-step"};

void print_table(const exp::Table& table, const exp::ArgParser& args) {
  if (args.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

int cmd_simulate(const exp::ArgParser& args) {
  args.require_known(kConfigOpts,
                     {"report", "trace", "trace-categories", "trace-cap"});
  const auto scenario = scenario_from(args);
  const auto built = scenario.build();
  core::HybridConfig config = config_from(args);
  config.obs = obs_from(args);
  const exp::ObservedRun observed = exp::run_hybrid_observed(built, config);
  const core::SimResult& r = observed.result;

  const std::string report_path = args.get_string("report", "");
  if (!report_path.empty()) {
    std::ofstream report(report_path);
    if (!report) {
      std::cerr << "simulate: cannot open " << report_path << "\n";
      return 2;
    }
    exp::ReportHeader header;
    header.num_items = scenario.num_items;
    header.theta = scenario.theta;
    header.arrival_rate = scenario.arrival_rate;
    header.num_requests = scenario.num_requests;
    header.seed = scenario.seed;
    exp::write_markdown_report(report, header, config, built.population, r);
    std::cout << "wrote report to " << report_path << "\n";
  }

  // Fault/resilience/scenario columns appear only when the respective
  // layer is on, so the default output stays byte-identical to builds
  // without them.
  const bool faulty = config.fault.active();
  const bool resilient = config.resilience.active();
  const bool shaped =
      scenario.preset != pushpull::scenario::Preset::kNone;
  std::vector<std::string> columns = {"class",     "priority",  "arrived",
                                      "mean delay", "max delay", "blocked",
                                      "abandoned"};
  if (shaped) {
    for (const char* c : {"gap max", "gap p99"}) columns.emplace_back(c);
  }
  if (faulty) {
    for (const char* c : {"corrupted", "retries", "shed", "lost", "goodput"})
      columns.emplace_back(c);
  }
  if (resilient) {
    for (const char* c : {"stormed", "rejected"}) columns.emplace_back(c);
  }
  columns.emplace_back("p-cost");
  exp::Table table(columns);
  for (workload::ClassId c = 0; c < built.population.num_classes(); ++c) {
    const auto& stats = r.per_class[c];
    auto& row = table.row()
        .add(std::string(built.population.cls(c).name))
        .add(built.population.priority(c), 0)
        .add(static_cast<std::size_t>(stats.arrived))
        .add(stats.wait.mean(), 2)
        .add(stats.wait.max(), 2)
        .add(static_cast<std::size_t>(stats.blocked))
        .add(static_cast<std::size_t>(stats.abandoned));
    if (shaped) {
      row.add(stats.gap.max(), 2).add(stats.gap_p99.value(), 2);
    }
    if (faulty) {
      row.add(static_cast<std::size_t>(stats.corrupted))
          .add(static_cast<std::size_t>(stats.retries))
          .add(static_cast<std::size_t>(stats.shed))
          .add(static_cast<std::size_t>(stats.lost))
          .add(stats.goodput_ratio(), 4);
    }
    if (resilient) {
      row.add(static_cast<std::size_t>(stats.stormed))
          .add(static_cast<std::size_t>(stats.rejected));
    }
    row.add(r.prioritized_cost(built.population, c), 2);
  }
  print_table(table, args);
  std::cout << "overall delay " << r.overall().wait.mean()
            << ", total prioritized cost "
            << r.total_prioritized_cost(built.population) << ", push tx "
            << r.push_transmissions << ", pull tx " << r.pull_transmissions;
  if (faulty) {
    std::cout << ", corrupted tx " << r.corrupted_push_transmissions << "+"
              << r.corrupted_pull_transmissions << ", shed "
              << r.overall().shed << ", lost " << r.overall().lost;
  }
  if (resilient) {
    std::cout << ", crashes " << r.crashes << " (downtime "
              << r.total_downtime << ", storms " << r.storm_rerequests
              << "), ladder max "
              << resilience::to_string(r.max_overload_level) << " ("
              << r.overload_transitions.size() << " transitions)";
  }
  if (shaped) {
    std::cout << ", scenario "
              << pushpull::scenario::to_string(scenario.preset)
              << " (re-homed " << built.shape.rehomed << ", handoff-lost "
              << built.shape.total_lost() << ", rotated "
              << built.shape.rotated << ")";
  }
  std::cout << "\n";
  const std::string trace_path = args.get_string("trace", "");
  if (!trace_path.empty()) {
    const int rc = write_trace_file(trace_path, observed.obs, "simulate");
    if (rc != 0) return rc;
  }
  return 0;
}

int cmd_chaos(const exp::ArgParser& args) {
  args.require_known(kConfigOpts,
                     {"reps", "spike-factor", "spike-start", "spike-duration",
                      "no-replay-check", "progress", "out", "gap-bound"});
  const auto scenario = scenario_from(args);
  const core::HybridConfig config = config_from(args);

  exp::ChaosOptions options;
  options.replications = args.get_size("reps", 16);
  options.jobs = scenario.jobs;
  // Validated numeric parsing: a spike factor must be positive finite, the
  // window non-negative finite — "-1" or "2x" fails with a one-line
  // diagnostic instead of warping the trace with garbage.
  options.spike_factor = args.get_positive_double("spike-factor", 1.0);
  options.spike_start = args.get_nonnegative_double("spike-start", 0.0);
  options.spike_duration = args.get_nonnegative_double("spike-duration", 0.0);
  options.verify_replay = !args.has("no-replay-check");
  options.gap_bound = args.get_nonnegative_double("gap-bound", 0.0);

  std::ofstream progress;
  std::unique_ptr<runtime::RunReporter> reporter;
  const std::string progress_path = args.get_string("progress", "");
  if (!progress_path.empty()) {
    progress.open(progress_path);
    if (!progress) {
      std::cerr << "chaos: cannot open " << progress_path << "\n";
      return 2;
    }
    reporter = std::make_unique<runtime::RunReporter>(progress);
    options.reporter = reporter.get();
  }
  const exp::ChaosSummary summary = exp::run_chaos(scenario, config, options);

  exp::Table table({"metric", "value"});
  table.row().add("replications").add(summary.replications);
  table.row().add("overall delay").add(summary.overall_delay.mean(), 3);
  table.row().add("total cost").add(summary.total_cost.mean(), 3);
  table.row().add("goodput").add(summary.goodput.mean(), 4);
  table.row().add("crashes").add(static_cast<std::size_t>(summary.crashes));
  table.row().add("total downtime").add(summary.total_downtime, 1);
  table.row().add("storm re-requests").add(
      static_cast<std::size_t>(summary.storm_rerequests));
  table.row().add("largest storm").add(
      static_cast<std::size_t>(summary.largest_storm));
  table.row().add("mean recovery latency").add(
      summary.recovery_latency.count() > 0 ? summary.recovery_latency.mean()
                                           : 0.0, 3);
  table.row().add("ladder transitions").add(summary.overload_transitions);
  table.row().add("ladder max level").add(
      std::string(resilience::to_string(summary.max_overload_level)));
  if (scenario.preset != pushpull::scenario::Preset::kNone) {
    table.row().add("scenario").add(std::string(
        pushpull::scenario::to_string(scenario.preset)));
    table.row().add("handoffs re-homed").add(
        static_cast<std::size_t>(summary.handoff_rehomed));
    table.row().add("handoffs lost").add(
        static_cast<std::size_t>(summary.handoff_lost));
    double worst_gap = 0.0;
    for (const auto& s : summary.per_class) {
      worst_gap = std::max(worst_gap, s.gap.max());
    }
    table.row().add("max service gap").add(worst_gap, 3);
  }
  print_table(table, args);

  const std::size_t failures = summary.invariants.failures();
  std::cout << "invariants: " << summary.invariants.checks.size() - failures
            << "/" << summary.invariants.checks.size() << " passed\n";
  if (failures > 0) {
    std::cout << resilience::format_report(summary.invariants);
  }

  const std::string out_path = args.get_string("out", "");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "chaos: cannot open " << out_path << "\n";
      return 2;
    }
    double worst_gap = 0.0;
    for (const auto& s : summary.per_class) {
      worst_gap = std::max(worst_gap, s.gap.max());
    }
    out << "{\n  \"replications\": " << summary.replications
        << ",\n  \"overall_delay\": " << summary.overall_delay.mean()
        << ",\n  \"total_cost\": " << summary.total_cost.mean()
        << ",\n  \"goodput\": " << summary.goodput.mean()
        << ",\n  \"crashes\": " << summary.crashes
        << ",\n  \"total_downtime\": " << summary.total_downtime
        << ",\n  \"storm_rerequests\": " << summary.storm_rerequests
        << ",\n  \"largest_storm\": " << summary.largest_storm
        << ",\n  \"scenario\": \""
        << pushpull::scenario::to_string(scenario.preset)
        << "\",\n  \"handoff_rehomed\": " << summary.handoff_rehomed
        << ",\n  \"handoff_lost\": " << summary.handoff_lost
        << ",\n  \"max_service_gap\": " << worst_gap
        << ",\n  \"ladder_transitions\": " << summary.overload_transitions
        << ",\n  \"ladder_max_level\": \""
        << resilience::to_string(summary.max_overload_level)
        << "\",\n  \"replay_identical\": "
        << (summary.replay_identical ? "true" : "false")
        << ",\n  \"invariant_checks\": " << summary.invariants.checks.size()
        << ",\n  \"invariant_failures\": " << failures << ",\n  \"checks\": [";
    for (std::size_t i = 0; i < summary.invariants.checks.size(); ++i) {
      const auto& check = summary.invariants.checks[i];
      out << (i ? "," : "") << "\n    {\"name\": \"" << check.name
          << "\", \"pass\": " << (check.pass ? "true" : "false") << "}";
    }
    out << "\n  ]\n}\n";
    std::cout << "wrote invariant report to " << out_path << "\n";
  }
  return summary.invariants.all_pass() ? 0 : 1;
}

int cmd_optimize(const exp::ArgParser& args) {
  args.require_known(kScenarioOpts, {"alpha", "step", "analytic", "trace",
                                     "trace-categories", "trace-cap"});
  const auto scenario = scenario_from(args);
  const double alpha = args.get_double("alpha", 0.5);
  const std::size_t step = args.get_size("step", 5);
  const obs::ObsConfig obs_config = obs_from(args);

  const auto built = scenario.build();
  std::unique_ptr<queueing::HybridAccessModel> model;
  std::function<double(std::size_t)> cost;
  if (args.has("analytic")) {
    model = std::make_unique<queueing::HybridAccessModel>(
        built.catalog, built.population, scenario.arrival_rate);
    cost = [&model, alpha](std::size_t k) {
      return model->prioritized_cost(k, alpha);
    };
  } else {
    cost = [&built, alpha](std::size_t k) {
      core::HybridConfig config;
      config.cutoff = k;
      config.alpha = alpha;
      return exp::run_hybrid(built, config)
          .total_prioritized_cost(built.population);
    };
  }

  exp::Table table({"K", "total cost"});
  core::CutoffScan scan;
  if (obs_config.enabled) {
    obs::TraceSink sink(obs_config.trace_capacity, obs_config.categories);
    scan = core::scan_cutoffs(0, built.catalog.size(), step, cost,
                              obs::Tracer(&sink));
    obs::ObsReport report;
    report.enabled = true;
    report.categories = sink.categories();
    report.trace_capacity = sink.capacity();
    report.emitted = sink.emitted();
    report.dropped = sink.dropped();
    report.events = sink.snapshot();
    const int rc =
        write_trace_file(args.get_string("trace", ""), report, "optimize");
    if (rc != 0) return rc;
  } else {
    scan = core::scan_cutoffs(0, built.catalog.size(), step, cost);
  }
  for (const auto& sample : scan.curve) {
    table.row().add(sample.cutoff).add(sample.cost, 2);
  }
  print_table(table, args);
  std::cout << "optimal cutoff K* = " << scan.best_cutoff << " (cost "
            << scan.best_cost << ")\n";
  return 0;
}

int cmd_model(const exp::ArgParser& args) {
  // The model is analytic over the catalog and population: it records no
  // trace, so the trace-shaping flags are rejected rather than ignored.
  args.require_known({"theta", "items", "rate", "seed", "jobs", "csv",
                      "alpha", "cutoff"});
  const auto scenario = scenario_from(args);
  scenario.validate();
  const double alpha = args.get_double("alpha", 0.5);
  const std::size_t cutoff = args.get_size("cutoff", 40);
  const catalog::Catalog cat = scenario.build_catalog();
  const workload::ClientPopulation pop = scenario.build_population();
  queueing::HybridAccessModel model(cat, pop, scenario.arrival_rate);
  const auto est = model.estimate(cutoff, alpha);

  exp::Table table({"metric", "value"});
  table.row().add("push delay").add(est.push_delay, 3);
  table.row().add("broadcast period").add(est.broadcast_period, 3);
  table.row().add("pull entry rate").add(est.entry_rate, 4);
  for (std::size_t c = 0; c < est.access_time.size(); ++c) {
    table.row()
        .add("E[T] class " + std::string(1, static_cast<char>('A' + c)))
        .add(est.access_time[c], 3);
  }
  table.row().add("E[T] overall").add(est.overall, 3);
  const double eq19 = model.paper_eq19(cutoff);
  table.row().add("paper Eq.19 (literal)").add(eq19, 3);
  print_table(table, args);
  return 0;
}

int cmd_replicate(const exp::ArgParser& args) {
  args.require_known(kConfigOpts, {"reps", "progress", "resume", "trace",
                                   "trace-categories", "trace-cap"});
  const auto scenario = scenario_from(args);
  const core::HybridConfig config = config_from(args);
  const std::size_t reps = args.get_size("reps", 10);

  exp::ReplicateOptions options;
  options.jobs = scenario.jobs;
  options.obs = obs_from(args);
  std::ofstream trace_file;
  const std::string trace_path = args.get_string("trace", "");
  if (!trace_path.empty()) {
    trace_file.open(trace_path);
    if (!trace_file) {
      std::cerr << "replicate: cannot open " << trace_path << "\n";
      return 2;
    }
    options.trace_out = &trace_file;
  }
  std::ofstream progress;
  std::unique_ptr<runtime::RunReporter> reporter;
  runtime::CheckpointStore checkpoint;
  const std::string progress_path = args.get_string("progress", "");
  const bool resume = args.has("resume");
  if (resume && progress_path.empty()) {
    std::cerr << "replicate: --resume needs --progress FILE (the JSONL file "
                 "of the interrupted run)\n";
    return 2;
  }
  if (!progress_path.empty()) {
    if (resume) {
      // Restore completed replications, then append new records to the same
      // file so a second crash is also resumable.
      checkpoint = runtime::CheckpointStore::load_file(progress_path);
      options.resume = &checkpoint;
      std::cout << "resuming: " << checkpoint.size() << "/" << reps
                << " replications already checkpointed in " << progress_path
                << "\n";
      progress.open(progress_path, std::ios::app);
    } else {
      progress.open(progress_path);
    }
    if (!progress) {
      std::cerr << "replicate: cannot open " << progress_path << "\n";
      return 2;
    }
    reporter = std::make_unique<runtime::RunReporter>(progress);
    options.reporter = reporter.get();
  }
  const auto summary = exp::replicate_hybrid(scenario, config, reps, options);

  exp::Table table({"metric", "mean", "ci95 +/-"});
  table.row()
      .add("overall delay")
      .add(summary.overall_delay.mean(), 3)
      .add(summary.overall_delay.ci_half_width(), 3);
  for (std::size_t c = 0; c < summary.class_delay.size(); ++c) {
    table.row()
        .add("delay class " + std::string(1, static_cast<char>('A' + c)))
        .add(summary.class_delay[c].mean(), 3)
        .add(summary.class_delay[c].ci_half_width(), 3);
  }
  table.row()
      .add("total cost")
      .add(summary.total_cost.mean(), 3)
      .add(summary.total_cost.ci_half_width(), 3);
  table.row()
      .add("blocking ratio")
      .add(summary.blocking.mean(), 5)
      .add(summary.blocking.ci_half_width(), 5);
  print_table(table, args);
  if (!trace_path.empty()) {
    std::cout << "wrote merged trace (" << reps << " replications) to "
              << trace_path << "\n";
  }
  return 0;
}

int cmd_adaptive(const exp::ArgParser& args) {
  // Runs the re-optimizing server on a drifting workload and prints the
  // cutoff trajectory alongside the delivered QoS. The drift generator is
  // the workload, so the scenario preset flags do not apply.
  args.require_known({"theta", "items", "rate", "requests", "seed", "jobs",
                      "csv", "epoch", "shift", "cutoff", "alpha", "interval",
                      "half-life"});
  const auto scenario = scenario_from(args);
  catalog::Catalog cat(scenario.num_items, scenario.theta,
                       catalog::LengthModel(scenario.min_length,
                                            scenario.max_length,
                                            scenario.mean_length),
                       scenario.seed);
  const auto pop = workload::ClientPopulation::zipf_classes(
      scenario.num_classes, scenario.class_zipf_theta);
  const double epoch = args.get_double("epoch", 500.0);
  const std::size_t shift = args.get_size("shift", scenario.num_items / 3);
  workload::DriftingGenerator gen(cat, pop, scenario.arrival_rate, epoch,
                                  shift, scenario.seed);
  const workload::Trace trace =
      workload::Trace::record(gen, scenario.num_requests);

  core::HybridConfig config;
  config.cutoff = args.get_size("cutoff", 30);
  config.alpha = args.get_double("alpha", 0.5);
  config.reoptimize_interval = args.get_double("interval", 200.0);
  config.estimator_half_life = args.get_double("half-life", 300.0);
  core::HybridServer server(cat, pop, config);
  const core::SimResult r = server.run(trace);

  exp::Table table({"class", "mean delay", "p-cost"});
  for (workload::ClassId c = 0; c < pop.num_classes(); ++c) {
    table.row()
        .add(std::string(pop.cls(c).name))
        .add(r.mean_wait(c), 2)
        .add(pop.priority(c) * r.mean_wait(c), 2);
  }
  print_table(table, args);
  std::cout << "re-optimizations: " << r.reoptimizations
            << ", final push-set size: "
            << (r.cutoff_history.empty() ? 0u : r.cutoff_history.back().second)
            << ", total cost " << r.total_prioritized_cost(pop) << "\n";
  return 0;
}

int cmd_multichannel(const exp::ArgParser& args) {
  args.require_known(kScenarioOpts, {"cutoff", "alpha", "channels"});
  const auto built = scenario_from(args).build();
  core::HybridConfig config;
  config.cutoff = args.get_size("cutoff", 40);
  config.alpha = args.get_double("alpha", 0.5);
  config.pull_channels = args.get_size("channels", 2);
  if (config.pull_channels == 0) {
    throw std::invalid_argument("--channels must be at least 1");
  }
  core::HybridServer server(built.catalog, built.population, config);
  const core::SimResult r = server.run(built.trace);

  exp::Table table({"class", "mean delay", "p99", "p-cost"});
  for (workload::ClassId c = 0; c < built.population.num_classes(); ++c) {
    table.row()
        .add(std::string(built.population.cls(c).name))
        .add(r.mean_wait(c), 2)
        .add(r.per_class[c].wait_p99.value(), 2)
        .add(built.population.priority(c) * r.mean_wait(c), 2);
  }
  print_table(table, args);
  std::cout << "push channel util " << r.channel_utilization[0]
            << ", pull channels:";
  for (std::size_t c = 1; c < r.channel_utilization.size(); ++c) {
    std::cout << ' ' << r.channel_utilization[c];
  }
  std::cout << "\n";
  return 0;
}

int cmd_closedloop(const exp::ArgParser& args) {
  // The clients generate the load, so the trace-shaping flags (--rate,
  // --requests and the scenario preset) do not apply.
  args.require_known({"theta", "items", "seed", "jobs", "csv", "clients",
                      "think-rate", "cutoff", "alpha", "horizon"});
  const auto scenario = scenario_from(args);
  catalog::Catalog cat(scenario.num_items, scenario.theta,
                       catalog::LengthModel(scenario.min_length,
                                            scenario.max_length,
                                            scenario.mean_length),
                       scenario.seed);
  const auto pop = workload::ClientPopulation::zipf_classes(
      scenario.num_classes, scenario.class_zipf_theta);
  core::HybridConfig config;
  config.cutoff = args.get_size("cutoff", 15);
  config.alpha = args.get_double("alpha", 0.25);
  config.warmup_fraction = 0.1;
  config.seed = scenario.seed;
  core::ClosedLoop loop;
  loop.clients = args.get_size("clients", 50);
  loop.think_rate = args.get_double("think-rate", 0.05);
  loop.horizon = args.get_double("horizon", 20000.0);
  core::HybridServer server(cat, pop, config);
  const core::SimResult r = server.run(loop);

  exp::Table table({"class", "arrived", "mean delay"});
  for (workload::ClassId c = 0; c < pop.num_classes(); ++c) {
    table.row()
        .add(std::string(pop.cls(c).name))
        .add(static_cast<std::size_t>(r.per_class[c].arrived))
        .add(r.mean_wait(c), 2);
  }
  print_table(table, args);
  std::cout << "throughput " << r.throughput << " deliveries/unit, push tx "
            << r.push_transmissions << ", pull tx " << r.pull_transmissions
            << "\n";
  return 0;
}

int cmd_uplink(const exp::ArgParser& args) {
  args.require_known(kScenarioOpts, {"slot", "retry"});
  const auto built = scenario_from(args).build();
  uplink::AlohaConfig config;
  config.slot_duration = args.get_double("slot", 0.1);
  config.retry_probability = args.get_double("retry", 0.1);
  config.seed = args.get_u64("seed", 1);
  const uplink::AlohaResult r = uplink::simulate_uplink(built.trace, config);

  exp::Table table({"metric", "value"});
  table.row().add("requests").add(static_cast<std::size_t>(
      r.delayed_trace.size()));
  table.row().add("mean uplink delay").add(r.mean_uplink_delay, 3);
  table.row().add("max uplink delay").add(r.max_uplink_delay, 3);
  table.row().add("collision ratio").add(r.collision_ratio(), 4);
  table.row().add("throughput / slot").add(r.throughput(), 4);
  print_table(table, args);
  return 0;
}

int cmd_lint(const exp::ArgParser& args) {
  // Prints the determinism-contract rule table and baseline statistics,
  // then scans the tree — the same passes the `detlint` binary and the
  // detlint_tree ctest run (per-file rules, layer DAG, dead suppressions,
  // baseline ratchet), embedded here so EXPERIMENTS.md
  // can document one entry point. Exit 0 clean, 1 findings, 2 usage/IO.
  std::filesystem::path root;
  std::string baseline_path;
  std::string json_path;
  try {
    args.require_known({"root", "baseline", "json"});
#ifdef DETLINT_DEFAULT_ROOT
    const std::string default_root = DETLINT_DEFAULT_ROOT;
#else
    const std::string default_root = ".";
#endif
    root = args.get_string("root", default_root);
    baseline_path = args.get_string(
        "baseline", (root / "tools" / "detlint" / "baseline.txt").string());
    json_path = args.get_string("json", "");
  } catch (const std::invalid_argument& e) {
    std::cerr << "lint: " << e.what() << "\n";
    return 2;
  }
  if (!std::filesystem::is_directory(root)) {
    std::cerr << "lint: --root " << root.string() << " is not a directory\n";
    return 2;
  }
  const detlint::Baseline baseline =
      detlint::Baseline::load_file(baseline_path);

  detlint::print_rule_table(std::cout);
  std::cout << "baseline: " << baseline.size() << " grandfathered entr"
            << (baseline.size() == 1 ? "y" : "ies") << " (" << baseline_path
            << ")\n\n";

  auto diags = detlint::analyze_tree(root);
  detlint::apply_baseline(diags, baseline);
  auto stale = detlint::baseline_ratchet(diags, baseline, baseline_path);
  diags.insert(diags.end(), stale.begin(), stale.end());

  // Emission routes through the same sorted_view idiom rule D3 enforces on
  // the tree: findings bucketed by (file, line, rule), emitted key-sorted.
  std::unordered_map<std::string, std::vector<const detlint::Diagnostic*>>
      fresh_by_key;
  for (const auto& d : diags) {
    if (d.baselined) continue;
    // Line zero-padded so the key's string order is (file, line, rule).
    char padded[16];
    std::snprintf(padded, sizeof padded, "%08zu", d.line);
    fresh_by_key[d.file + ":" + padded + ":" + d.rule].push_back(&d);
  }
  for (const auto& [key, group] : metrics::sorted_view(fresh_by_key)) {
    for (const detlint::Diagnostic* d : group) {
      std::cout << d->file << ":" << d->line << ": " << d->rule << ": "
                << d->message << "\n";
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "lint: cannot open " << json_path << "\n";
      return 2;
    }
    std::sort(diags.begin(), diags.end(),
              [](const detlint::Diagnostic& a, const detlint::Diagnostic& b) {
                return std::tie(a.file, a.line, a.rule) <
                       std::tie(b.file, b.line, b.rule);
              });
    detlint::render_json(out, diags);
  }

  const std::size_t fresh = detlint::fresh_count(diags);
  std::cout << "lint: " << fresh << " finding" << (fresh == 1 ? "" : "s")
            << ", " << diags.size() - fresh << " baselined\n";
  return fresh == 0 ? 0 : 1;
}

int cmd_trace(const exp::ArgParser& args) {
  args.require_known(kConfigOpts,
                     {"out", "trace", "trace-categories", "trace-cap"});
  const std::string out = args.get_string("out", "");
  const std::string trace_path = args.get_string("trace", "");
  if (out.empty() && trace_path.empty()) {
    std::cerr << "trace: need --out FILE (request CSV) and/or --trace FILE "
                 "(simulation event trace)\n";
    return 2;
  }
  const auto scenario = scenario_from(args);
  const auto built = scenario.build();
  if (!out.empty()) {
    std::ofstream file(out);
    if (!file) {
      std::cerr << "trace: cannot open " << out << "\n";
      return 2;
    }
    built.trace.save_csv(file);
    std::cout << "wrote " << built.trace.size() << " requests spanning "
              << built.trace.span() << " broadcast units to " << out << "\n";
  }
  if (!trace_path.empty()) {
    core::HybridConfig config = config_from(args);
    config.obs = obs_from(args);
    const exp::ObservedRun observed = exp::run_hybrid_observed(built, config);
    const int rc = write_trace_file(trace_path, observed.obs, "trace");
    if (rc != 0) return rc;
  }
  return 0;
}

// Options understood by serve_config_from — the live-serving analogue of
// kScenarioOpts/kConfigOpts. Execution knobs (--accelerated, --time-scale,
// --pacers, --queue-capacity) live here too so serve and loadtest share one
// builder. The fault/ladder flags reuse the simulate/replicate spellings.
const std::initializer_list<std::string_view> kServeOpts = {
    "items",        "theta",      "classes", "cutoff",
    "alpha",        "policy",     "demand",  "duration",
    "target-qps",   "seed",       "accelerated", "time-scale",
    "pacers",       "queue-capacity",
    "scenario",     "scenario-intensity",
    "mean-deadline", "deadline-scale", "deadline-spike-factor",
    "deadline-spike-start", "deadline-spike-duration",
    "fault", "fault-p-gb", "fault-p-bg", "fault-corrupt-good",
    "fault-corrupt-bad", "fault-retries", "fault-backoff",
    "fault-backoff-mult", "queue-cap", "shed",
    "ladder", "ladder-interval", "ladder-capacity", "ladder-cutoff-step",
    "hedge-after", "drain-after", "sync-every"};

std::vector<double> parse_csv_doubles(const std::string& key,
                                      const std::string& csv) {
  std::vector<double> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = csv.find(',', start);
    const std::string token =
        csv.substr(start, comma == std::string::npos ? std::string::npos
                                                     : comma - start);
    std::size_t pos = 0;
    double parsed = 0.0;
    try {
      parsed = std::stod(token, &pos);
    } catch (const std::exception&) {
      pos = std::string::npos;
    }
    if (pos != token.size()) {
      throw std::invalid_argument(
          "--" + key + " expects a comma-separated list of numbers, got '" +
          token + "'");
    }
    out.push_back(parsed);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

serve::ServeConfig serve_config_from(const exp::ArgParser& args) {
  serve::ServeConfig c;
  c.num_items = args.get_size("items", c.num_items);
  c.theta = args.get_double("theta", c.theta);
  c.num_classes = args.get_size("classes", c.num_classes);
  c.cutoff = args.get_size("cutoff", c.cutoff);
  c.alpha = args.get_double("alpha", c.alpha);
  c.pull_policy = policy_from(args.get_string("policy", "importance"));
  c.mean_bandwidth_demand = args.get_double("demand", c.mean_bandwidth_demand);
  c.duration = args.get_positive_double("duration", c.duration);
  c.target_qps = args.get_positive_double("target-qps", c.target_qps);
  c.seed = args.get_u64("seed", c.seed);
  c.accelerated = args.has("accelerated");
  c.time_scale = args.get_positive_double("time-scale", c.time_scale);
  c.pacers =
      static_cast<std::size_t>(args.get_positive_u64("pacers", c.pacers));
  c.queue_capacity = static_cast<std::size_t>(
      args.get_positive_u64("queue-capacity", c.queue_capacity));
  // Live failure model (DESIGN §10).
  c.mean_deadline = args.get_double("mean-deadline", c.mean_deadline);
  const std::string scales = args.get_string("deadline-scale", "");
  if (!scales.empty()) {
    c.deadline_scale = parse_csv_doubles("deadline-scale", scales);
  }
  c.deadline_spike_factor =
      args.get_double("deadline-spike-factor", c.deadline_spike_factor);
  c.deadline_spike_start =
      args.get_double("deadline-spike-start", c.deadline_spike_start);
  c.deadline_spike_duration =
      args.get_double("deadline-spike-duration", c.deadline_spike_duration);
  c.fault = fault_from(args);
  c.overload.enabled = args.has("ladder");
  c.overload.eval_interval =
      args.get_double("ladder-interval", c.overload.eval_interval);
  c.overload.capacity_ref =
      args.get_size("ladder-capacity", c.overload.capacity_ref);
  c.overload.cutoff_step =
      args.get_size("ladder-cutoff-step", c.overload.cutoff_step);
  c.hedge_after = args.get_double("hedge-after", c.hedge_after);
  c.drain_after = args.get_double("drain-after", c.drain_after);
  c.journal_sync_every = args.get_size("sync-every", c.journal_sync_every);
  c.validate();
  return c;
}

// SIGTERM target of `pushpull serve`: the handler only flips the flag; the
// realtime loop polls it and runs the graceful drain (stop admission,
// flush the pull side, seal the journal with the conservation ledger).
std::atomic<bool> g_drain_requested{false};

extern "C" void on_sigterm(int) { g_drain_requested.store(true); }

// Shared body of `pushpull serve` and `pushpull loadtest`: build (or load)
// the plan, run the live server on the virtual or wall clock, print the
// deterministic report, optionally recording a crash-consistent sv2
// journal for replay/resume.
int run_live(serve::ServeConfig config, const std::string& record_path,
             const std::string& from_trace, const char* cmd,
             const exp::ArgParser& args) {
  std::optional<serve::RecordedRun> recorded;
  if (!from_trace.empty()) {
    recorded = serve::load_trace_file(from_trace);
    // Workload universe + scheduler come from the recording; only the
    // execution knobs (clock mode, pacing, queue bound) follow the CLI, so
    // a re-offered trace hits the same catalog it was captured against.
    serve::ServeConfig base = recorded->config;
    base.accelerated = config.accelerated;
    base.time_scale = config.time_scale;
    base.pacers = config.pacers;
    base.queue_capacity = config.queue_capacity;
    config = base;
  }
  const auto cat = config.build_catalog();
  const auto pop = config.build_population();
  serve::LoadDriver driver =
      recorded ? serve::LoadDriver(recorded->trace())
               : serve::LoadDriver(cat, pop, config.target_qps,
                                   config.duration, config.seed);

  // Scenario shaping happens at the plan level, before any pacing: the
  // journal then records the *shaped* requests, so replay and resume need
  // no scenario knowledge at all.
  const pushpull::scenario::Preset preset =
      pushpull::scenario::parse_preset(args.get_string("scenario", "none"));
  if (preset != pushpull::scenario::Preset::kNone) {
    if (!from_trace.empty()) {
      std::cerr << cmd
                << ": --scenario shapes a synthesized plan; it cannot be "
                   "combined with --from-trace (the recording is already "
                   "whatever environment it was captured in)\n";
      return 2;
    }
    const double intensity =
        args.get_positive_double("scenario-intensity", 1.0);
    const pushpull::scenario::Timeline timeline =
        pushpull::scenario::make_timeline(preset, intensity,
                                          driver.plan().span(),
                                          config.num_items);
    pushpull::scenario::ShapedTrace shaped =
        pushpull::scenario::shape_trace(
            driver.plan(), timeline,
            rng::SplitMix64::mix(config.seed ^ 0x5EEDCAFEULL),
            config.num_items, config.num_classes);
    std::cout << "scenario " << pushpull::scenario::to_string(preset)
              << ": shaped " << shaped.summary.total_base()
              << " planned requests (re-homed " << shaped.summary.rehomed
              << ", handoff-lost " << shaped.summary.total_lost()
              << ", rotated " << shaped.summary.rotated << ")\n";
    driver = serve::LoadDriver(std::move(shaped.trace));
  }

  std::optional<serve::JournalFile> journal;
  std::optional<serve::TraceRecorder> recorder;
  if (!record_path.empty()) {
    try {
      journal.emplace(record_path);
    } catch (const std::exception& e) {
      std::cerr << cmd << ": " << e.what() << "\n";
      return 2;
    }
    recorder.emplace(*journal, config);
  }
  serve::TraceRecorder* rec = recorder ? &*recorder : nullptr;

  const obs::ObsConfig obs_config = obs_from(args);
  std::optional<obs::RunObserver> observer;

  serve::LiveServer server(cat, pop, config);
  if (obs_config.enabled) {
    observer.emplace(obs_config, config.num_classes);
    server.set_tracer(observer->tracer());
  }
  serve::ServeReport report;
  if (config.accelerated) {
    report = server.run_accelerated(driver, rec);
  } else {
    server.set_drain_flag(&g_drain_requested);
    (void)std::signal(SIGTERM, on_sigterm);
    const auto clock = serve::make_wall_clock(config.time_scale);
    serve::CompletionQueue queue(config.queue_capacity);
    const std::uint64_t planned = driver.plan().size();
    std::thread producer(
        [&driver, &queue, &clock, &config] {
          driver.run_realtime(queue, *clock, config.pacers);
        });
    try {
      report = server.run_realtime(queue, *clock, planned, rec);
    } catch (...) {
      queue.close();  // unblocks the pacers so the join below terminates
      producer.join();
      throw;
    }
    producer.join();
  }
  if (recorder) recorder->finish();
  std::cout << serve::render_serve_report(report);
  if (!record_path.empty()) {
    std::cout << "journaled " << report.arrivals << " requests to "
              << record_path << "\n";
  }
  if (observer) {
    const int rc =
        write_trace_file(args.get_string("trace", ""), observer->report(),
                         cmd);
    if (rc != 0) return rc;
  }
  return 0;
}

// `pushpull serve --resume CRASHED.svj`: salvage the longest valid prefix
// of a truncated journal, deterministically re-run it (optionally
// re-journaling into --record FILE, sealed this time), and report.
int cmd_serve_resume(const exp::ArgParser& args) {
  args.require_known({"resume", "record"});
  const std::string in = args.get_string("resume", "");
  if (in.empty()) {
    std::cerr << "serve: --resume needs the crashed journal path "
                 "(pushpull serve --resume FILE [--record OUT])\n";
    return 2;
  }
  const serve::ResumeResult resume =
      serve::resume_from_journal(in, args.get_string("record", ""));
  std::cout << "{\"schema\":\"resume1\",\"records\":"
            << resume.recovered.records << ",\"requests\":"
            << resume.recovered.run.requests.size() << ",\"bytes_consumed\":"
            << resume.recovered.bytes_consumed << ",\"sealed\":"
            << (resume.recovered.sealed ? "true" : "false") << "}\n";
  std::cout << serve::render_serve_report(resume.report);
  return 0;
}

// `pushpull serve --chaos`: the seeded kill/recover/resume/replay harness
// over the full failure cocktail. Exit 1 when any replication fails the
// bit-exact replay check.
int cmd_serve_chaos(const exp::ArgParser& args) {
  args.require_known(kServeOpts, {"chaos", "reps", "dir", "out"});
  serve::ServeConfig config = serve::chaos_profile(serve_config_from(args));
  config.accelerated = true;
  config.validate();
  serve::ChaosOptions options;
  options.replications =
      static_cast<std::size_t>(args.get_positive_u64("reps", 5));
  options.scratch_dir = args.get_string("dir", ".");
  // --scenario used to be accepted and silently ignored here; wire it
  // through the plan-shaping hook so each rep journals a shaped plan, with
  // the same timeline/seed derivation as plain `serve --scenario`.
  const pushpull::scenario::Preset preset =
      pushpull::scenario::parse_preset(args.get_string("scenario", "none"));
  if (preset != pushpull::scenario::Preset::kNone) {
    const double intensity =
        args.get_positive_double("scenario-intensity", 1.0);
    options.shape_plan = [preset, intensity](
                             workload::Trace plan,
                             const serve::ServeConfig& cfg) {
      const pushpull::scenario::Timeline timeline =
          pushpull::scenario::make_timeline(preset, intensity, plan.span(),
                                            cfg.num_items);
      pushpull::scenario::ShapedTrace shaped =
          pushpull::scenario::shape_trace(
              std::move(plan), timeline,
              rng::SplitMix64::mix(cfg.seed ^ 0x5EEDCAFEULL),
              cfg.num_items, cfg.num_classes);
      return std::move(shaped.trace);
    };
  }
  const serve::ChaosReport report = serve::run_chaos(config, options);
  const std::string rendered = serve::render_chaos_report(report);
  const std::string out = args.get_string("out", "");
  if (!out.empty()) {
    std::ofstream file(out);
    if (!file) {
      std::cerr << "serve: cannot open " << out << "\n";
      return 2;
    }
    file << rendered;
  }
  std::cout << rendered;
  return report.all_exact() ? 0 : 1;
}

int cmd_serve(const exp::ArgParser& args) {
  // Wall-clock serving: the load driver paces arrivals in real time
  // (scaled by --time-scale) and the server completes slots as the wall
  // passes their logical ends. For the deterministic fast path use
  // `pushpull loadtest --accelerated`. SIGTERM (or --drain-after) drains
  // gracefully instead of killing the run.
  if (args.has("resume")) return cmd_serve_resume(args);
  if (args.has("chaos")) return cmd_serve_chaos(args);
  args.require_known(kServeOpts, {"record", "from-trace", "trace",
                                  "trace-categories", "trace-cap"});
  serve::ServeConfig config = serve_config_from(args);
  config.accelerated = false;
  return run_live(config, args.get_string("record", ""),
                  args.get_string("from-trace", ""), "serve", args);
}

int cmd_loadtest(const exp::ArgParser& args) {
  args.require_known(kServeOpts, {"record", "from-trace", "trace",
                                  "trace-categories", "trace-cap"});
  if (args.has("accelerated")) {
    // The virtual clock paces nothing and no completion queue carries the
    // streamed plan, so these would be accepted and silently ignored.
    for (const char* wall_only : {"time-scale", "pacers", "queue-capacity"}) {
      if (args.has(wall_only)) {
        std::cerr << "loadtest: --" << wall_only
                  << " has no effect with --accelerated (it configures "
                     "wall-clock pacing only)\n";
        return 2;
      }
    }
  }
  const serve::ServeConfig config = serve_config_from(args);
  return run_live(config, args.get_string("record", ""),
                  args.get_string("from-trace", ""), "loadtest", args);
}

int cmd_replay(const exp::ArgParser& args) {
  args.require_known({"in", "reps", "jobs", "out"});
  std::string path = args.get_string("in", "");
  if (path.empty() && args.positional().size() > 1) {
    path = args.positional()[1];
  }
  if (path.empty()) {
    std::cerr << "replay: need a recorded trace "
                 "(pushpull replay TRACE.jsonl, or --in FILE)\n";
    return 2;
  }
  const serve::RecordedRun run = serve::load_trace_file(path);
  serve::ReplayOptions options;
  options.reps = static_cast<std::size_t>(args.get_positive_u64("reps", 1));
  options.jobs = args.has("jobs") ? args.get_jobs("jobs") : 1;
  const auto results = serve::replay(run, options);
  const std::string report = serve::render_replay_report(run, results);
  const std::string out = args.get_string("out", "");
  if (!out.empty()) {
    std::ofstream file(out);
    if (!file) {
      std::cerr << "replay: cannot open " << out << "\n";
      return 2;
    }
    file << report;
  }
  std::cout << report;
  return 0;
}

void usage() {
  std::cout <<
      R"(pushpull — hybrid push/pull broadcast scheduling (ICPP 2005 reproduction)

commands:
  simulate     run the hybrid server once, print per-class QoS
  optimize     scan cutoffs for the minimum total prioritized cost
  model        evaluate the analytical access-time model at one cutoff
               (records no trace: --requests and --scenario* are rejected)
  replicate    run many seeds, report means with 95% confidence intervals
               (--jobs N parallel workers; output is bit-identical for any N)
  adaptive     re-optimizing server (--interval, --half-life) on a drifting
               workload (--epoch, --shift)
  multichannel dedicated broadcast channel + N pull channels (--channels)
  uplink       push the trace through the slotted-ALOHA back-channel
  closedloop   finite client population (--clients, --think-rate,
               --horizon)
  chaos        seeded chaos/soak harness: crashes + burst errors + arrival
               spike over N replications, with a machine-verified invariant
               suite (exit 1 on any violation)
  serve        run the live completion-queue server against paced open-loop
               load on the wall clock (--time-scale X fast-forwards).
               SIGTERM or --drain-after T drains gracefully: admission
               stops, the pull side flushes, the journal seals with the
               conservation ledger. `serve --resume FILE` recovers a
               crashed journal; `serve --chaos` runs the kill/recover/
               resume/replay harness (exit 1 on any replay mismatch)
  loadtest     measurement run of the live server; --accelerated streams
               the plan through the same engine on its virtual clock (fast,
               seeded, bit-reproducible; --time-scale, --pacers and
               --queue-capacity are wall-clock only and rejected there),
               --record FILE captures an sv2 journal
  replay       feed a recorded trace back through the engine that served
               it (pushpull replay TRACE [--reps R] [--jobs N]): the whole
               failure model and the drain replay in the DES core; rep 0
               re-runs the recorded seed bit-exactly
  trace        record the scenario's request trace to CSV (--out FILE)
               and/or run the hybrid server with full observability and
               write the sim-time event trace as JSONL (--trace FILE)
  lint         print the determinism-contract rules (D1-D5, L1, R1-R2, S1)
               and baseline stats, then run every detlint pass over the
               tree — per-file rules, layer DAG, dead suppressions,
               baseline ratchet (--root DIR, --baseline FILE, --json FILE;
               exit 0 clean / 1 findings / 2 usage-IO)

common options:
  --theta T --alpha A --cutoff K --requests N --seed S --items D --rate L
  --policy {fcfs,mrf,stretch,priority,rxw,lwf,importance,importance-q}
  --bandwidth B --demand D --patience P --csv --report FILE (simulate)
  --scenario {none,diurnal,flashcrowd,commuter,kitchen-sink}
               apply a seeded environment timeline to the recorded trace:
               piecewise arrival modulation (diurnal curves, flash-crowd
               ramps), moving-Zipf popularity rotation, and cell handoffs
               that re-home or lose in-flight requests. RNG-free trace
               transformation — `none` (default) is byte-identical to
               pre-scenario builds. Honored by the trace-driven commands
               (simulate / optimize / trace / multichannel / uplink /
               replicate / chaos) and by serve / loadtest (shapes the
               synthesized plan; incompatible with --from-trace)
  --scenario-intensity X   how far the preset departs from the stationary
               baseline (default 1.0; rate deviations scale by X, handoff
               probabilities scale linearly, capped at 0.9)
  --jobs N     worker threads for replicate (default: all hardware threads;
               --jobs 1 = serial). Seeds derive from the replication index,
               so results are identical for every N.
  --progress FILE  write JSONL progress + checkpoint lines (one per finished
               replication); also the input for --resume
  --resume     with --progress FILE: restore replications already
               checkpointed in FILE (from a killed run) and compute only the
               rest; the summary is bit-identical to an uninterrupted run

fault injection (simulate / replicate):
  --fault      enable the Gilbert-Elliott burst-error downlink channel
  --fault-p-gb P / --fault-p-bg P   good->bad / bad->good transition
               probabilities per transmission (default 0.05 / 0.30)
  --fault-corrupt-good P / --fault-corrupt-bad P   corruption probability in
               the good / bad state (default 0.0 / 0.5)
  --fault-retries N    re-request attempts before a pull item is lost (3)
  --fault-backoff B / --fault-backoff-mult M   exponential backoff: retry k
               waits B*M^(k-1) broadcast units (default 1.0 / 2.0)
  --queue-cap N    bound the pull queue at N requests (0 = unbounded)
  --shed {tail,priority}   overload policy at the cap: refuse the newcomer
               (tail) or evict the lowest-importance request (priority)

resilience (simulate / replicate / chaos):
  --crash-rate R   Poisson server-crash rate per broadcast unit (0 = never);
               crashes void the in-flight transmission and wipe the queue
  --crash-downtime T   dark time after each crash (default 50)
  --recovery {cold,warm}   cold loses all server state (re-request storm);
               warm restores the pull queue from the latest snapshot
  --snapshot-interval T   period of warm-recovery snapshots (default 100)
  --rerequest-timeout T / --storm-spread J   a wiped client re-requests at
               recovery + T + U(0, J) (defaults 20 / 10)
  --max-crashes N  upper bound on scheduled crashes (default 64)
  --ladder     enable the overload degradation ladder: normal ->
               shed-low-priority -> widen-push -> admission-control ->
               brownout, driven by queue occupancy and blocking EWMA
  --ladder-interval T / --ladder-capacity N / --ladder-cutoff-step K
               evaluation period (5), occupancy reference & soft cap (64),
               widen-push cutoff growth (10)

observability (simulate / optimize / replicate / trace / serve / loadtest):
  --trace FILE accumulate a deterministic sim-time event trace and write it
               as sorted JSONL; without the flag no observer exists and the
               run is byte-identical to an uninstrumented build (serve and
               loadtest write the engine's events, hedges and the drain
               included)
  --trace-categories CSV   keep only these categories (push, pull, queue,
               cutoff, fault, crash, ladder, retry, drain; default "all";
               retry carries hedges); the filtered
               stream is an exact sub-sequence of the unfiltered one
  --trace-cap N    ring-buffer capacity in events (default 65536); on
               overflow the oldest events drop and the footer reports it
               (replicate: the merged stream is bit-identical for every
               --jobs value and across --resume)

live serving (serve / loadtest / replay):
  --duration SEC   load-generation horizon in broadcast units (default 50);
               must be a positive finite number
  --target-qps N   mean offered arrivals per broadcast unit (default 5)
  --accelerated    (loadtest) virtual clock: the event loop advances time
               itself; the run is a pure function of the seed
  --time-scale X   broadcast units per wall second on the wall clock
               (default 1.0; 10 = ten times faster than real time)
  --pacers N   producer threads pacing arrivals (default 1). The plan is
               synthesized upfront, so pacer count never changes which
               requests exist
  --queue-capacity N   completion-queue bound; a full queue backpressures
               the pacers (default 1024). --time-scale, --pacers and
               --queue-capacity configure the wall clock only: loadtest
               --accelerated rejects them
  --record FILE    write the run as a crash-consistent sv2 journal (framed
               header + requests + decisions + sealed ledger footer) — the
               input to `pushpull replay` and `serve --resume`; sv1 JSONL
               traces from older builds are no longer read
  --from-trace FILE    re-offer a recorded trace as the load plan instead of
               synthesizing one (workload + scheduler come from the file)
  --classes N  service classes in the synthesized population (default 3)
  --reps R     (replay) server-side replications over the recorded workload:
               rep 0 uses the recorded seed verbatim, rep r > 0 decorrelates
               the server seed; merged in rep order so --jobs N never
               changes the bytes
  --out FILE   (replay) also write the report to FILE

live failure model (serve / loadtest; defaults inert):
  --mean-deadline T    mean exponential per-request deadline in broadcast
               units, drawn from the seeded patience stream (0 = off)
  --deadline-scale CSV     per-class multipliers on each deadline draw
               (e.g. 2.0,1.0,0.5: premium classes wait longer)
  --deadline-spike-factor F --deadline-spike-start T
  --deadline-spike-duration W   chaos: deadlines drawn in [T, T+W) are
               multiplied by F (F < 1 tightens them)
  --fault* / --queue-cap / --shed   the simulate/replicate fault layer,
               applied to the live loop (burst errors, bounded retries,
               bounded queue with shedding)
  --ladder*    the overload degradation ladder; transitions are stamped
               into the journal decision log
  --hedge-after T  hedge a pull request still queued after T units: post a
               duplicate into its item entry to boost its priority
  --drain-after T  stop admission at serve time T and drain (what SIGTERM
               does on the wall clock)
  --sync-every N   fsync the journal every N records (default 64; 0 = only
               at seal)

serve --resume / --chaos:
  --resume FILE    salvage the longest valid prefix of a truncated journal,
               re-run it deterministically, print the recovery summary +
               report (--record OUT re-journals the run, sealed)
  --chaos      seeded kill/recover/resume/replay harness over the full
               failure cocktail (deadlines + spike + burst errors + ladder);
               per rep: journal a run, truncate at a random offset, resume,
               replay, compare per-class stats bit-for-bit
  --reps R     (--chaos) replications (default 5)
  --dir DIR    (--chaos) where per-rep journal artifacts land (default .)
  --out FILE   (--chaos) also write the chaos report to FILE
               (--chaos) --scenario/--scenario-intensity shape each rep's
               plan before it is journaled, exactly like plain serve

chaos options:
  --reps R     replications (default 16; merged in index order, so --jobs N
               never changes the numbers)
  --spike-factor F --spike-start T --spike-duration W   compress arrivals in
               [T, T+W) by F (instantaneous rate multiplies by F). F must be
               positive finite; T and W non-negative finite
  --scenario NAME --scenario-intensity X   compose an environment timeline
               with the crash/fault cocktail from the same seed; adds the
               conservation-across-handoff invariant per class
  --gap-bound G    require every class's max inter-service gap <= G
               (0 = unchecked); violations fail the invariant suite (exit 1)
  --no-replay-check    skip the bit-identical-replay invariant
  --out FILE   write the invariant report + summary as JSON
)";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const exp::ArgParser args(argc, argv);
    if (args.positional().empty()) {
      usage();
      return 2;
    }
    const std::string& command = args.positional().front();
    if (command == "simulate") return cmd_simulate(args);
    if (command == "optimize") return cmd_optimize(args);
    if (command == "model") return cmd_model(args);
    if (command == "replicate") return cmd_replicate(args);
    if (command == "adaptive") return cmd_adaptive(args);
    if (command == "multichannel") return cmd_multichannel(args);
    if (command == "uplink") return cmd_uplink(args);
    if (command == "closedloop") return cmd_closedloop(args);
    if (command == "chaos") return cmd_chaos(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "loadtest") return cmd_loadtest(args);
    if (command == "replay") return cmd_replay(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "lint") return cmd_lint(args);
    if (command == "help") {
      usage();
      return 0;
    }
    std::cerr << "unknown command: " << command << "\n";
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
