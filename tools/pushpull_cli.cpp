// pushpull — command-line driver for the hybrid-scheduling library. The
// subcommands and their flags are listed by `pushpull help`.
//
// Each command reads its flags into the values it runs with, reading a flag
// only where its value reaches the run (a sub-flag only under its switch),
// and then calls ArgParser::reject_unread() before it builds a trace, opens
// a file or starts a thread. The reads are the allow-list: a flag the run
// would ignore exits 1 instead of running a different experiment.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/cutoff_optimizer.hpp"
#include "core/hybrid_server.hpp"
#include "exp/chaos.hpp"
#include "exp/cli.hpp"
#include "exp/replication.hpp"
#include "fault/fault_config.hpp"
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

/// --theta, --items and --seed: the §5.1 catalog and class population.
exp::Scenario catalog_from(const exp::ArgParser& args) {
  exp::Scenario s;
  s.theta = args.get_double("theta", s.theta);
  s.num_items = args.get_size("items", s.num_items);
  s.seed = args.get_u64("seed", s.seed);
  return s;
}

/// The --scenario preset; --scenario-intensity is read only under one.
pushpull::scenario::Preset preset_from(const exp::ArgParser& args,
                                       double& intensity) {
  const pushpull::scenario::Preset preset =
      pushpull::scenario::parse_preset(args.get_string("scenario", "none"));
  if (preset != pushpull::scenario::Preset::kNone) {
    intensity = args.get_positive_double("scenario-intensity", intensity);
  }
  return preset;
}

/// The recorded request trace over `s`: --rate, --requests and the preset.
exp::Scenario trace_from(const exp::ArgParser& args, exp::Scenario s) {
  s.arrival_rate = args.get_double("rate", s.arrival_rate);
  s.num_requests = args.get_size("requests", 50000);
  s.preset = preset_from(args, s.preset_intensity);
  return s;
}

exp::Scenario scenario_from(const exp::ArgParser& args) {
  return trace_from(args, catalog_from(args));
}

/// What the analytic model reads: the catalog, the population and --rate.
/// It records no trace, so --requests and --scenario* are not read.
exp::Scenario model_scenario_from(const exp::ArgParser& args) {
  exp::Scenario s = catalog_from(args);
  s.arrival_rate = args.get_double("rate", s.arrival_rate);
  return s;
}

/// Only the importance policies weigh stretch against priority
/// (γ_i = α·S_i + (1−α)·Q_i), so --alpha is read only under them.
double alpha_from(const exp::ArgParser& args, sched::PullPolicyKind policy,
                  double alpha) {
  const bool weighted = policy == sched::PullPolicyKind::kImportance ||
                        policy == sched::PullPolicyKind::kImportanceQueueAware;
  return weighted ? args.get_double("alpha", alpha) : alpha;
}

/// The fault layer: the channel and retry flags under --fault, and --shed
/// only with a bounded queue. `chaos`: the serve --chaos profile turns the
/// channel on with its own parameters unless --fault is given, but keeps
/// the retry policy, so there the retry flags are read without --fault.
fault::FaultConfig fault_from(const exp::ArgParser& args, bool chaos = false) {
  fault::FaultConfig f;
  // The CLI's channel defaults, which the replication fingerprint and the
  // sv2 journal header record even while the channel is off.
  f.channel.p_good_to_bad = 0.05;
  f.channel.p_bad_to_good = 0.30;
  f.channel.corrupt_bad = 0.5;
  f.enabled = args.get_flag("fault");
  if (f.enabled) {
    f.channel.p_good_to_bad =
        args.get_double("fault-p-gb", f.channel.p_good_to_bad);
    f.channel.p_bad_to_good =
        args.get_double("fault-p-bg", f.channel.p_bad_to_good);
    f.channel.corrupt_good =
        args.get_double("fault-corrupt-good", f.channel.corrupt_good);
    f.channel.corrupt_bad =
        args.get_double("fault-corrupt-bad", f.channel.corrupt_bad);
  }
  if (f.enabled || chaos) {
    f.retry.max_retries = static_cast<std::uint32_t>(
        args.get_size("fault-retries", f.retry.max_retries));
    f.retry.backoff_base =
        args.get_double("fault-backoff", f.retry.backoff_base);
    f.retry.backoff_multiplier =
        args.get_double("fault-backoff-mult", f.retry.backoff_multiplier);
  }
  f.queue_capacity = args.get_size("queue-cap", 0);
  if (f.queue_capacity > 0) {
    f.shed_policy = fault::parse_shed_policy(args.get_string("shed", "tail"));
  }
  f.validate();
  return f;
}

/// The degradation ladder: --ladder and, under it, --ladder-*. `forced`:
/// the serve --chaos profile turns the ladder on whatever --ladder says.
resilience::OverloadConfig ladder_from(const exp::ArgParser& args,
                                       bool forced = false) {
  resilience::OverloadConfig o;
  o.enabled = forced || args.get_flag("ladder");
  if (o.enabled) {
    o.eval_interval = args.get_double("ladder-interval", o.eval_interval);
    o.capacity_ref = args.get_size("ladder-capacity", o.capacity_ref);
    o.cutoff_step = args.get_size("ladder-cutoff-step", o.cutoff_step);
  }
  return o;
}

/// Crashes and the ladder. The crash flags are read only when --crash-rate
/// is positive, and --snapshot-interval only with --recovery warm.
resilience::ResilienceConfig resilience_from(const exp::ArgParser& args) {
  resilience::ResilienceConfig r;
  r.crash.rate = args.get_double("crash-rate", 0.0);
  r.crash.enabled = r.crash.rate > 0.0;
  if (r.crash.enabled) {
    r.crash.downtime = args.get_double("crash-downtime", r.crash.downtime);
    r.crash.recovery =
        resilience::parse_recovery_mode(args.get_string("recovery", "cold"));
    if (r.crash.recovery == resilience::RecoveryMode::kWarm) {
      r.crash.snapshot_interval =
          args.get_double("snapshot-interval", r.crash.snapshot_interval);
    }
    r.crash.rerequest_timeout =
        args.get_double("rerequest-timeout", r.crash.rerequest_timeout);
    r.crash.storm_spread =
        args.get_double("storm-spread", r.crash.storm_spread);
    r.crash.max_crashes = args.get_size("max-crashes", r.crash.max_crashes);
  }
  r.overload = ladder_from(args);
  r.validate();
  return r;
}

// Observability is keyed off `--trace FILE`: no flag, no observer, and the
// simulation output is bit-identical to a build without the obs layer. The
// caller reads the path itself.
obs::ObsConfig obs_from(const exp::ArgParser& args) {
  obs::ObsConfig o;
  o.enabled = args.has("trace");
  if (o.enabled) {
    o.categories =
        obs::parse_categories(args.get_string("trace-categories", "all"));
    o.trace_capacity = args.get_size("trace-cap", o.trace_capacity);
  }
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
  config.pull_policy =
      sched::parse_pull_policy(args.get_string("policy", "importance"));
  config.alpha = alpha_from(args, config.pull_policy, config.alpha);
  config.total_bandwidth = args.get_double("bandwidth", 0.0);
  config.mean_bandwidth_demand = args.get_double("demand", 1.0);
  config.mean_patience = args.get_double("patience", 0.0);
  config.seed = args.get_u64("seed", 1);
  config.fault = fault_from(args);
  config.resilience = resilience_from(args);
  return config;
}

void print_table(const exp::Table& table, bool csv) {
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

int cmd_simulate(const exp::ArgParser& args) {
  const auto scenario = scenario_from(args);
  core::HybridConfig config = config_from(args);
  config.obs = obs_from(args);
  const std::string trace_path = args.get_string("trace", "");
  const std::string report_path = args.get_string("report", "");
  const bool csv = args.get_flag("csv");
  args.reject_unread();

  const auto built = scenario.build();
  const exp::ObservedRun observed = exp::run_hybrid_observed(built, config);
  const core::SimResult& r = observed.result;

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
  print_table(table, csv);
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
  if (!trace_path.empty()) {
    const int rc = write_trace_file(trace_path, observed.obs, "simulate");
    if (rc != 0) return rc;
  }
  return 0;
}

int cmd_chaos(const exp::ArgParser& args) {
  auto scenario = scenario_from(args);
  scenario.jobs = args.get_jobs("jobs");
  const core::HybridConfig config = config_from(args);

  exp::ChaosOptions options;
  options.replications = args.get_size("reps", 16);
  // A spike is read only as a whole: it needs its factor and its window.
  // Validated numeric parsing: a spike factor must be positive finite, the
  // window non-negative finite — "-1" or "2x" fails with a one-line
  // diagnostic instead of warping the trace with garbage.
  if (args.has("spike-factor") && args.has("spike-duration")) {
    options.spike_factor =
        args.get_positive_double("spike-factor", options.spike_factor);
    options.spike_start =
        args.get_nonnegative_double("spike-start", options.spike_start);
    options.spike_duration =
        args.get_nonnegative_double("spike-duration", options.spike_duration);
  }
  options.verify_replay = !args.get_flag("no-replay-check");
  options.gap_bound = args.get_nonnegative_double("gap-bound", 0.0);
  const std::string progress_path = args.get_string("progress", "");
  const std::string out_path = args.get_string("out", "");
  const bool csv = args.get_flag("csv");
  args.reject_unread();

  std::ofstream progress;
  std::unique_ptr<runtime::RunReporter> reporter;
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
  print_table(table, csv);

  const std::size_t failures = summary.invariants.failures();
  std::cout << "invariants: " << summary.invariants.checks.size() - failures
            << "/" << summary.invariants.checks.size() << " passed\n";
  if (failures > 0) {
    std::cout << resilience::format_report(summary.invariants);
  }


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
  const bool analytic = args.get_flag("analytic");
  const exp::Scenario scenario =
      analytic ? model_scenario_from(args) : scenario_from(args);
  const double alpha = args.get_double("alpha", 0.5);
  const std::size_t step = args.get_size("step", 5);
  const obs::ObsConfig obs_config = obs_from(args);
  const std::string trace_path = args.get_string("trace", "");
  const bool csv = args.get_flag("csv");
  args.reject_unread();

  const auto scan_and_print =
      [&](const std::function<double(std::size_t)>& cost) {
        std::optional<obs::TraceSink> sink;
        if (obs_config.enabled) {
          sink.emplace(obs_config.trace_capacity, obs_config.categories);
        }
        const core::CutoffScan scan =
            core::scan_cutoffs(0, scenario.num_items, step, cost,
                               obs::Tracer(sink ? &*sink : nullptr));
        if (sink) {
          obs::ObsReport report;
          report.enabled = true;
          report.categories = sink->categories();
          report.trace_capacity = sink->capacity();
          report.emitted = sink->emitted();
          report.dropped = sink->dropped();
          report.events = sink->snapshot();
          const int rc = write_trace_file(trace_path, report, "optimize");
          if (rc != 0) return rc;
        }
        exp::Table table({"K", "total cost"});
        for (const auto& sample : scan.curve) {
          table.row().add(sample.cutoff).add(sample.cost, 2);
        }
        print_table(table, csv);
        std::cout << "optimal cutoff K* = " << scan.best_cutoff << " (cost "
                  << scan.best_cost << ")\n";
        return 0;
      };

  if (analytic) {
    scenario.validate();
    const catalog::Catalog cat = scenario.build_catalog();
    const workload::ClientPopulation pop = scenario.build_population();
    const queueing::HybridAccessModel model(cat, pop, scenario.arrival_rate);
    return scan_and_print([&model, alpha](std::size_t k) {
      return model.prioritized_cost(k, alpha);
    });
  }
  const auto built = scenario.build();
  return scan_and_print([&built, alpha](std::size_t k) {
    core::HybridConfig config;
    config.cutoff = k;
    config.alpha = alpha;
    return exp::run_hybrid(built, config)
        .total_prioritized_cost(built.population);
  });
}

int cmd_model(const exp::ArgParser& args) {
  const auto scenario = model_scenario_from(args);
  const double alpha = args.get_double("alpha", 0.5);
  const std::size_t cutoff = args.get_size("cutoff", 40);
  const bool csv = args.get_flag("csv");
  args.reject_unread();

  scenario.validate();
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
  print_table(table, csv);
  return 0;
}

int cmd_replicate(const exp::ArgParser& args) {
  auto scenario = scenario_from(args);
  scenario.jobs = args.get_jobs("jobs");
  const core::HybridConfig config = config_from(args);
  const std::size_t reps = args.get_size("reps", 10);
  exp::ReplicateOptions options;
  options.obs = obs_from(args);
  const std::string trace_path = args.get_string("trace", "");
  const std::string progress_path = args.get_string("progress", "");
  const bool resume = args.get_flag("resume");
  const bool csv = args.get_flag("csv");
  args.reject_unread();

  std::ofstream trace_file;
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
  print_table(table, csv);
  if (!trace_path.empty()) {
    std::cout << "wrote merged trace (" << reps << " replications) to "
              << trace_path << "\n";
  }
  return 0;
}

int cmd_adaptive(const exp::ArgParser& args) {
  // Runs the re-optimizing server on a drifting workload and prints the
  // cutoff trajectory alongside the delivered QoS. The drift generator is
  // the workload, so the scenario preset flags are not read.
  exp::Scenario scenario = catalog_from(args);
  scenario.arrival_rate = args.get_double("rate", scenario.arrival_rate);
  scenario.num_requests = args.get_size("requests", 50000);
  const double epoch = args.get_double("epoch", 500.0);
  const std::size_t shift = args.get_size("shift", scenario.num_items / 3);
  core::HybridConfig config;
  config.cutoff = args.get_size("cutoff", 30);
  config.alpha = args.get_double("alpha", 0.5);
  config.reoptimize_interval = args.get_double("interval", 200.0);
  config.estimator_half_life = args.get_double("half-life", 300.0);
  const bool csv = args.get_flag("csv");
  args.reject_unread();

  scenario.validate();
  const catalog::Catalog cat = scenario.build_catalog();
  const workload::ClientPopulation pop = scenario.build_population();
  workload::DriftingGenerator gen(cat, pop, scenario.arrival_rate, epoch,
                                  shift, scenario.seed);
  const workload::Trace trace =
      workload::Trace::record(gen, scenario.num_requests);
  core::HybridServer server(cat, pop, config);
  const core::SimResult r = server.run(trace);

  exp::Table table({"class", "mean delay", "p-cost"});
  for (workload::ClassId c = 0; c < pop.num_classes(); ++c) {
    table.row()
        .add(std::string(pop.cls(c).name))
        .add(r.mean_wait(c), 2)
        .add(pop.priority(c) * r.mean_wait(c), 2);
  }
  print_table(table, csv);
  std::cout << "re-optimizations: " << r.reoptimizations
            << ", final push-set size: "
            << (r.cutoff_history.empty() ? 0u : r.cutoff_history.back().second)
            << ", total cost " << r.total_prioritized_cost(pop) << "\n";
  return 0;
}

int cmd_multichannel(const exp::ArgParser& args) {
  const auto scenario = scenario_from(args);
  core::HybridConfig config;
  config.cutoff = args.get_size("cutoff", 40);
  config.alpha = args.get_double("alpha", 0.5);
  config.pull_channels = args.get_size("channels", 2);
  const bool csv = args.get_flag("csv");
  args.reject_unread();
  if (config.pull_channels == 0) {
    throw std::invalid_argument("--channels must be at least 1");
  }
  const auto built = scenario.build();
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
  print_table(table, csv);
  std::cout << "push channel util " << r.channel_utilization[0]
            << ", pull channels:";
  for (std::size_t c = 1; c < r.channel_utilization.size(); ++c) {
    std::cout << ' ' << r.channel_utilization[c];
  }
  std::cout << "\n";
  return 0;
}

int cmd_closedloop(const exp::ArgParser& args) {
  // The clients generate the load, so the trace flags (--rate, --requests
  // and the scenario preset) are not read.
  const exp::Scenario scenario = catalog_from(args);
  core::HybridConfig config;
  config.cutoff = args.get_size("cutoff", 15);
  config.alpha = args.get_double("alpha", 0.25);
  config.warmup_fraction = 0.1;
  config.seed = scenario.seed;
  core::ClosedLoop loop;
  loop.clients = args.get_size("clients", 50);
  loop.think_rate = args.get_double("think-rate", 0.05);
  loop.horizon = args.get_double("horizon", 20000.0);
  const bool csv = args.get_flag("csv");
  args.reject_unread();

  scenario.validate();
  const catalog::Catalog cat = scenario.build_catalog();
  const workload::ClientPopulation pop = scenario.build_population();
  core::HybridServer server(cat, pop, config);
  const core::SimResult r = server.run(loop);

  exp::Table table({"class", "arrived", "mean delay"});
  for (workload::ClassId c = 0; c < pop.num_classes(); ++c) {
    table.row()
        .add(std::string(pop.cls(c).name))
        .add(static_cast<std::size_t>(r.per_class[c].arrived))
        .add(r.mean_wait(c), 2);
  }
  print_table(table, csv);
  std::cout << "throughput " << r.throughput << " deliveries/unit, push tx "
            << r.push_transmissions << ", pull tx " << r.pull_transmissions
            << "\n";
  return 0;
}

int cmd_uplink(const exp::ArgParser& args) {
  // The back-channel sees only arrival times, so the catalog flags
  // (--items, --theta) are not read.
  exp::Scenario seeded;
  seeded.seed = args.get_u64("seed", seeded.seed);
  const exp::Scenario scenario = trace_from(args, seeded);
  uplink::AlohaConfig config;
  config.slot_duration = args.get_double("slot", 0.1);
  config.retry_probability = args.get_double("retry", 0.1);
  config.seed = args.get_u64("seed", 1);
  const bool csv = args.get_flag("csv");
  args.reject_unread();
  const auto built = scenario.build();
  const uplink::AlohaResult r = uplink::simulate_uplink(built.trace, config);

  exp::Table table({"metric", "value"});
  table.row().add("requests").add(static_cast<std::size_t>(
      r.delayed_trace.size()));
  table.row().add("mean uplink delay").add(r.mean_uplink_delay, 3);
  table.row().add("max uplink delay").add(r.max_uplink_delay, 3);
  table.row().add("collision ratio").add(r.collision_ratio(), 4);
  table.row().add("throughput / slot").add(r.throughput(), 4);
  print_table(table, csv);
  return 0;
}

int cmd_trace(const exp::ArgParser& args) {
  const std::string out = args.get_string("out", "");
  const std::string trace_path = args.get_string("trace", "");
  if (out.empty() && trace_path.empty()) {
    std::cerr << "trace: need --out FILE (request CSV) and/or --trace FILE "
                 "(simulation event trace)\n";
    return 2;
  }
  const auto scenario = scenario_from(args);
  // Without --trace no server runs, so its configuration is not read.
  std::optional<core::HybridConfig> config;
  if (!trace_path.empty()) {
    config = config_from(args);
    config->obs = obs_from(args);
  }
  args.reject_unread();

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
  if (config) {
    const exp::ObservedRun observed = exp::run_hybrid_observed(built, *config);
    const int rc = write_trace_file(trace_path, observed.obs, "trace");
    if (rc != 0) return rc;
  }
  return 0;
}

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


/// The live workload, scheduler and failure model (DESIGN §10), without the
/// execution knobs. `chaos`: the serve --chaos profile forces the fault
/// layer and the ladder on (see fault_from and ladder_from).
serve::ServeConfig serve_config_from(const exp::ArgParser& args, bool chaos) {
  serve::ServeConfig c;
  c.num_items = args.get_size("items", c.num_items);
  c.theta = args.get_double("theta", c.theta);
  c.num_classes = args.get_size("classes", c.num_classes);
  c.cutoff = args.get_size("cutoff", c.cutoff);
  c.pull_policy =
      sched::parse_pull_policy(args.get_string("policy", "importance"));
  c.alpha = alpha_from(args, c.pull_policy, c.alpha);
  c.duration = args.get_positive_double("duration", c.duration);
  c.target_qps = args.get_positive_double("target-qps", c.target_qps);
  c.seed = args.get_u64("seed", c.seed);
  c.mean_bandwidth_demand = args.get_double("demand", c.mean_bandwidth_demand);
  c.mean_deadline = args.get_double("mean-deadline", c.mean_deadline);
  const std::string scales = args.get_string("deadline-scale", "");
  if (!scales.empty()) {
    c.deadline_scale = parse_csv_doubles("deadline-scale", scales);
  }
  // A deadline spike is read only as a whole: it needs its factor and its
  // window (ServeConfig::deadline_spike_enabled).
  if (args.has("deadline-spike-factor") &&
      args.has("deadline-spike-duration")) {
    c.deadline_spike_factor =
        args.get_double("deadline-spike-factor", c.deadline_spike_factor);
    c.deadline_spike_start =
        args.get_double("deadline-spike-start", c.deadline_spike_start);
    c.deadline_spike_duration =
        args.get_double("deadline-spike-duration", c.deadline_spike_duration);
  }
  c.fault = fault_from(args, chaos);
  c.overload = ladder_from(args, chaos);
  c.hedge_after = args.get_double("hedge-after", c.hedge_after);
  c.drain_after = args.get_double("drain-after", c.drain_after);
  return c;
}

/// Shapes a synthesized serve plan with a --scenario preset, seeded off the
/// serve seed on the same hash chain as exp::Scenario::build. The journal
/// then records the shaped requests, so replay and resume need no scenario
/// knowledge at all.
pushpull::scenario::ShapedTrace shape_serve_plan(
    workload::Trace plan, pushpull::scenario::Preset preset, double intensity,
    const serve::ServeConfig& config) {
  const pushpull::scenario::Timeline timeline =
      pushpull::scenario::make_timeline(preset, intensity, plan.span(),
                                        config.num_items);
  return pushpull::scenario::shape_trace(
      std::move(plan), timeline,
      rng::SplitMix64::mix(config.seed ^ 0x5EEDCAFEULL), config.num_items,
      config.num_classes);
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
int run_live(const exp::ArgParser& args, bool accelerated, const char* cmd) {
  const std::string from_trace = args.get_string("from-trace", "");
  const std::string record_path = args.get_string("record", "");
  const std::string trace_path = args.get_string("trace", "");
  const obs::ObsConfig obs_config = obs_from(args);
  // A recording fixes the workload universe and the scheduler, so under
  // --from-trace only the execution knobs and the outputs are read: a
  // re-offered trace hits the same catalog it was captured against.
  serve::ServeConfig config;
  pushpull::scenario::Preset preset = pushpull::scenario::Preset::kNone;
  double intensity = 1.0;
  if (from_trace.empty()) {
    config = serve_config_from(args, /*chaos=*/false);
    preset = preset_from(args, intensity);
    if (!record_path.empty()) {
      config.journal_sync_every =
          args.get_size("sync-every", config.journal_sync_every);
    }
  }
  config.accelerated = accelerated;
  // The virtual clock paces nothing and no completion queue carries the
  // streamed plan, so the wall-clock knobs are read only on the wall clock.
  if (!accelerated) {
    config.time_scale =
        args.get_positive_double("time-scale", config.time_scale);
    config.pacers = static_cast<std::size_t>(
        args.get_positive_u64("pacers", config.pacers));
    config.queue_capacity = static_cast<std::size_t>(
        args.get_positive_u64("queue-capacity", config.queue_capacity));
  }
  args.reject_unread();

  std::optional<serve::RecordedRun> recorded;
  if (from_trace.empty()) {
    config.validate();
  } else {
    recorded = serve::load_trace_file(from_trace);
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
  if (preset != pushpull::scenario::Preset::kNone) {
    pushpull::scenario::ShapedTrace shaped =
        shape_serve_plan(driver.plan(), preset, intensity, config);
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
  std::cout << serve::render_serve_report(report);
  if (!record_path.empty()) {
    std::cout << "journaled " << report.arrivals << " requests to "
              << record_path << "\n";
  }
  if (observer) {
    const int rc = write_trace_file(trace_path, observer->report(), cmd);
    if (rc != 0) return rc;
  }
  return 0;
}

// `pushpull serve --resume CRASHED.svj`: salvage the longest valid prefix
// of a truncated journal, deterministically re-run it (optionally
// re-journaling into --record FILE, sealed this time), and report.
int cmd_serve_resume(const exp::ArgParser& args) {
  const std::string in = args.get_string("resume", "");
  const std::string record = args.get_string("record", "");
  args.reject_unread();
  if (in.empty()) {
    std::cerr << "serve: --resume needs the crashed journal path "
                 "(pushpull serve --resume FILE [--record OUT])\n";
    return 2;
  }
  const serve::ResumeResult resume = serve::resume_from_journal(in, record);
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
// bit-exact replay check. Every rep runs accelerated and journals, so the
// wall-clock knobs are not read and --sync-every always is.
int cmd_serve_chaos(const exp::ArgParser& args) {
  serve::ServeConfig config = serve_config_from(args, /*chaos=*/true);
  config.journal_sync_every =
      args.get_size("sync-every", config.journal_sync_every);
  serve::ChaosOptions options;
  options.replications =
      static_cast<std::size_t>(args.get_positive_u64("reps", 5));
  options.scratch_dir = args.get_string("dir", ".");
  double intensity = 1.0;
  const pushpull::scenario::Preset preset = preset_from(args, intensity);
  const std::string out = args.get_string("out", "");
  args.reject_unread();

  config = serve::chaos_profile(config);
  config.accelerated = true;
  config.validate();
  if (preset != pushpull::scenario::Preset::kNone) {
    options.shape_plan = [preset, intensity](workload::Trace plan,
                                             const serve::ServeConfig& cfg) {
      return shape_serve_plan(std::move(plan), preset, intensity, cfg).trace;
    };
  }
  const serve::ChaosReport report = serve::run_chaos(config, options);
  const std::string rendered = serve::render_chaos_report(report);
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
  if (args.get_flag("chaos")) return cmd_serve_chaos(args);
  return run_live(args, /*accelerated=*/false, "serve");
}

int cmd_loadtest(const exp::ArgParser& args) {
  return run_live(args, args.get_flag("accelerated"), "loadtest");
}

int cmd_replay(const exp::ArgParser& args) {
  // Only replay takes a positional argument after the command: the
  // recording, when --in does not name it.
  std::string path = args.get_string("in", "");
  if (path.empty()) path = args.get_positional(1, "");
  serve::ReplayOptions options;
  options.reps = static_cast<std::size_t>(args.get_positive_u64("reps", 1));
  options.jobs = args.has("jobs") ? args.get_jobs("jobs") : 1;
  const std::string out = args.get_string("out", "");
  args.reject_unread();
  if (path.empty()) {
    std::cerr << "replay: need a recorded trace "
                 "(pushpull replay TRACE.jsonl, or --in FILE)\n";
    return 2;
  }
  const serve::RecordedRun run = serve::load_trace_file(path);
  const auto results = serve::replay(run, options);
  const std::string report = serve::render_replay_report(run, results);
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

Each command reads only the flags that reach its run. Any other flag exits
1 with "unknown option", and so does a sub-flag passed without its switch:
--fault-* without --fault, --shed without --queue-cap, the crash flags
without --crash-rate, --snapshot-interval without --recovery warm,
--ladder-* without --ladder, --trace-* without --trace, --sync-every
without --record, --scenario-intensity without --scenario, half of a
spike, and --alpha under a policy other than importance / importance-q.

commands:
  simulate     run the hybrid server once, print per-class QoS
               (--report FILE also writes a markdown report)
  optimize     scan cutoffs for the minimum total prioritized cost
               (--step K cutoff stride, default 5; --analytic scans the
               analytical model instead, records no trace and so reads no
               --requests or --scenario*)
  model        evaluate the analytical access-time model at one cutoff
               (records no trace: no --requests or --scenario*)
  replicate    run many seeds, report means with 95% confidence intervals
               (--jobs N parallel workers; output is bit-identical for any N)
  adaptive     re-optimizing server (--interval, --half-life) on a drifting
               workload (--epoch, --shift); no --scenario*
  multichannel dedicated broadcast channel + N pull channels (--channels)
  uplink       push the trace through the slotted-ALOHA back-channel
               (--slot T slot length, default 0.1; --retry P retransmission
               probability, default 0.1); it sees only arrival times, so no
               --items or --theta
  closedloop   finite client population (--clients, --think-rate,
               --horizon); the clients make the load: no --rate,
               --requests or --scenario*
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
               seeded, bit-reproducible; no --time-scale, --pacers or
               --queue-capacity there), --record FILE captures an sv2
               journal
  replay       feed a recorded trace back through the engine that served
               it (pushpull replay TRACE, or --in TRACE; --reps R, --jobs N,
               --out FILE): the whole failure model and the drain replay in
               the DES core; rep 0 re-runs the recorded seed bit-exactly
  trace        record the scenario's request trace to CSV (--out FILE)
               and/or run the hybrid server with full observability and
               write the sim-time event trace as JSONL (--trace FILE; the
               server flags are read only with it)

workload (every command but replay):
  --theta T --items D --seed S   catalog skew and size, and the seed
  --rate L --requests N   Poisson arrival rate and trace length
  --scenario {none,diurnal,flashcrowd,commuter,kitchen-sink}
               apply a seeded environment timeline to the recorded trace:
               piecewise arrival modulation (diurnal curves, flash-crowd
               ramps), moving-Zipf popularity rotation, and cell handoffs
               that re-home or lose in-flight requests. RNG-free trace
               transformation — `none` (default) is byte-identical to
               pre-scenario builds. Shapes the recorded trace of simulate /
               optimize / replicate / multichannel / uplink / chaos / trace,
               and the synthesized plan of serve / loadtest
  --scenario-intensity X   how far the preset departs from the stationary
               baseline (default 1.0; rate deviations scale by X, handoff
               probabilities scale linearly, capped at 0.9)
  --csv        print the result table as CSV (the commands that print one)

scheduler (simulate / replicate / chaos / trace / serve / loadtest; the
drift, multichannel and closed-loop runs take --cutoff and --alpha):
  --cutoff K --alpha A   push-set size and the importance weight
  --policy {fcfs,mrf,stretch,priority,rxw,lwf,importance,importance-q}
  --bandwidth B --demand D --patience P   (not serve / loadtest: --demand)

replication (replicate / chaos):
  --jobs N     worker threads (default: all hardware threads; --jobs 1 =
               serial). Seeds derive from the replication index, so results
               are identical for every N.
  --progress FILE  write JSONL progress + checkpoint lines (one per finished
               replication); also the input for replicate --resume
  --resume     (replicate) with --progress FILE: restore replications
               already checkpointed in FILE (from a killed run) and compute
               only the rest; the summary is bit-identical to an
               uninterrupted run

fault injection (simulate / replicate / chaos / trace / serve / loadtest):
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

resilience (simulate / replicate / chaos / trace; serve / loadtest take
the ladder):
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

live serving (serve / loadtest):
  --duration SEC   load-generation horizon in broadcast units (default 50);
               must be a positive finite number
  --target-qps N   mean offered arrivals per broadcast unit (default 5)
  --classes N  service classes in the synthesized population (default 3)
  --accelerated    (loadtest) virtual clock: the event loop advances time
               itself; the run is a pure function of the seed
  --time-scale X   broadcast units per wall second on the wall clock
               (default 1.0; 10 = ten times faster than real time)
  --pacers N   producer threads pacing arrivals (default 1). The plan is
               synthesized upfront, so pacer count never changes which
               requests exist
  --queue-capacity N   completion-queue bound; a full queue backpressures
               the pacers (default 1024). --time-scale, --pacers and
               --queue-capacity configure the wall clock only
  --record FILE    write the run as a crash-consistent sv2 journal (framed
               header + requests + decisions + sealed ledger footer) — the
               input to `pushpull replay` and `serve --resume`; sv1 JSONL
               traces from older builds are no longer read
  --sync-every N   fsync the journal every N records (default 64; 0 = only
               at seal)
  --from-trace FILE    re-offer a recorded trace as the load plan instead of
               synthesizing one. The workload and the scheduler come from
               the file, so only --accelerated, the wall-clock flags and the
               output flags are read with it

live failure model (serve / loadtest; defaults inert):
  --mean-deadline T    mean exponential per-request deadline in broadcast
               units, drawn from the seeded patience stream (0 = off)
  --deadline-scale CSV     per-class multipliers on each deadline draw
               (e.g. 2.0,1.0,0.5: premium classes wait longer)
  --deadline-spike-factor F --deadline-spike-start T
  --deadline-spike-duration W   chaos: deadlines drawn in [T, T+W) are
               multiplied by F (F < 1 tightens them); read only with both
               F and W
  --fault* / --queue-cap / --shed   the fault layer above, applied to the
               live loop (burst errors, bounded retries, bounded queue with
               shedding)
  --ladder*    the overload degradation ladder; transitions are stamped
               into the journal decision log
  --hedge-after T  hedge a pull request still queued after T units: post a
               duplicate into its item entry to boost its priority
  --drain-after T  stop admission at serve time T and drain (what SIGTERM
               does on the wall clock)

serve --resume / --chaos:
  --resume FILE    salvage the longest valid prefix of a truncated journal,
               re-run it deterministically, print the recovery summary +
               report (--record OUT re-journals the run, sealed)
  --chaos      seeded kill/recover/resume/replay harness over the full
               failure cocktail (deadlines + spike + burst errors + ladder);
               per rep: journal a run, truncate at a random offset, resume,
               replay, compare per-class stats bit-for-bit. Every rep runs
               accelerated with the ladder on and journals, so it reads no
               --accelerated, wall-clock flag or --ladder, and reads
               --ladder-*, --sync-every and the retry flags without their
               switches; the channel flags, --shed and the deadline spike
               apply only with --fault, --queue-cap and a whole spike
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
               positive finite; T and W non-negative finite; read only with
               both F and W
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
    const std::string command = args.get_positional(0, "");
    if (command.empty()) {
      usage();
      return 2;
    }
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
    if (command == "help") {
      args.reject_unread();
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
