#include "serve/chaos.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/export.hpp"
#include "rng/splitmix64.hpp"
#include "rng/stream.hpp"
#include "rng/uniform.hpp"
#include "serve/load_driver.hpp"
#include "serve/replay.hpp"

namespace pushpull::serve {

using obs::render_number;

namespace {

/// Canonical byte rendering of per-class statistics — two stat vectors are
/// "bit-exact" equal iff their fingerprints match. Covers every counter
/// and the full wait distribution (mean and tail quantiles).
std::string stats_fingerprint(const std::vector<metrics::ClassStats>& stats) {
  std::ostringstream out;
  for (std::size_t cls = 0; cls < stats.size(); ++cls) {
    const metrics::ClassStats& s = stats[cls];
    out << cls << '|' << s.arrived << '|' << s.served << '|' << s.served_push
        << '|' << s.served_pull << '|' << s.blocked << '|' << s.abandoned
        << '|' << s.corrupted << '|' << s.retries << '|' << s.shed << '|'
        << s.lost << '|' << s.rejected << '|' << render_number(s.wait.mean())
        << '|' << render_number(s.wait_p50.count() ? s.wait_p50.value() : 0.0)
        << '|' << render_number(s.wait_p95.count() ? s.wait_p95.value() : 0.0)
        << '|' << render_number(s.wait_p99.count() ? s.wait_p99.value() : 0.0)
        << '\n';
  }
  return out.str();
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("serve chaos: cannot read " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file_bytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw std::runtime_error("serve chaos: cannot write " + path);
  }
}

const char* render_bool(bool b) noexcept { return b ? "true" : "false"; }

}  // namespace

ResumeResult resume_from_journal(const std::string& journal_path,
                                 const std::string& out_path) {
  ResumeResult result;
  result.recovered = recover_trace_file(journal_path);

  ServeConfig config = result.recovered.run.config;
  config.accelerated = true;
  const catalog::Catalog cat = config.build_catalog();
  const workload::ClientPopulation pop = config.build_population();
  LoadDriver driver(result.recovered.run.trace());
  LiveServer server(cat, pop, config);
  if (out_path.empty()) {
    result.report = server.run_accelerated(driver, nullptr);
  } else {
    JournalFile file(out_path);
    TraceRecorder recorder(file, config);
    result.report = server.run_accelerated(driver, &recorder);
  }
  return result;
}

ServeConfig chaos_profile(ServeConfig base) {
  if (base.mean_deadline <= 0.0) {
    base.mean_deadline = 8.0;
  }
  if (!base.deadline_spike_enabled()) {
    base.deadline_spike_factor = 0.35;
    base.deadline_spike_start = base.duration * 0.4;
    base.deadline_spike_duration = base.duration * 0.2;
  }
  if (!base.fault.enabled) {
    base.fault.enabled = true;
    base.fault.channel.p_good_to_bad = 0.05;
    base.fault.channel.p_bad_to_good = 0.25;
    base.fault.channel.corrupt_good = 0.01;
    base.fault.channel.corrupt_bad = 0.6;
  }
  if (base.fault.queue_capacity == 0) {
    base.fault.queue_capacity = 48;
    base.fault.shed_policy = fault::ShedPolicy::kDropLowestPriority;
  }
  base.overload.enabled = true;
  return base;
}

bool ChaosReport::all_exact() const noexcept {
  for (const ChaosRepOutcome& r : reps) {
    if (!r.replay_bit_exact) return false;
  }
  return true;
}

ChaosReport run_chaos(const ServeConfig& config, const ChaosOptions& options) {
  if (options.replications == 0) {
    throw std::invalid_argument("serve chaos: replications must be >= 1");
  }
  config.validate();

  // One stream drives every kill point, so the whole campaign replays from
  // the base seed.
  rng::Xoshiro256ss kill_eng =
      rng::StreamFactory(config.seed).stream("serve-chaos-kill");

  ChaosReport report;
  report.reps.reserve(options.replications);
  for (std::size_t rep = 0; rep < options.replications; ++rep) {
    ServeConfig cfg = config;
    cfg.accelerated = true;
    if (rep > 0) {
      cfg.seed = rng::SplitMix64::mix(config.seed + rep);
    }
    const catalog::Catalog cat = cfg.build_catalog();
    const workload::ClientPopulation pop = cfg.build_population();

    const std::string stem =
        options.scratch_dir + "/serve_chaos_rep" + std::to_string(rep);
    const std::string full_path = stem + ".svj";
    const std::string killed_path = stem + "_killed.svj";
    const std::string resumed_path = stem + "_resumed.svj";

    {
      LoadDriver driver(cat, pop, cfg.target_qps, cfg.duration, cfg.seed);
      if (options.shape_plan) {
        // Plan-level shaping before anything is journaled: the journal
        // below records the shaped requests, so the kill/recover/resume/
        // replay chain needs no knowledge of the transformation.
        driver = LoadDriver(options.shape_plan(driver.plan(), cfg));
      }
      LiveServer server(cat, pop, cfg);
      JournalFile file(full_path);
      TraceRecorder recorder(file, cfg);
      (void)server.run_accelerated(driver, &recorder);
    }

    const std::string bytes = read_file_bytes(full_path);
    std::istringstream full_in(bytes);
    JournalReader reader(full_in);
    if (!reader.next()) {
      throw std::runtime_error(
          "serve chaos: recorded journal has no complete records");
    }
    // The kill never lands inside the header record: a journal whose config
    // is gone is a total loss, not a recovery scenario.
    const std::uint64_t header_len = reader.bytes_consumed();
    const std::uint64_t span = bytes.size() - header_len;
    const std::uint64_t kill =
        header_len + rng::uniform_below(kill_eng, span + 1);
    write_file_bytes(killed_path, std::string_view(bytes).substr(0, kill));

    const ResumeResult resume = resume_from_journal(killed_path, resumed_path);

    const RecordedRun resumed = load_trace_file(resumed_path);
    ReplayOptions replay_options;
    replay_options.reps = 1;
    const std::vector<core::SimResult> replayed = replay(resumed,
                                                         replay_options);

    ChaosRepOutcome outcome;
    outcome.rep = rep;
    outcome.seed = cfg.seed;
    outcome.journal_bytes = bytes.size();
    outcome.kill_offset = kill;
    outcome.records_recovered = resume.recovered.records;
    outcome.requests_recovered = resume.recovered.run.requests.size();
    outcome.sealed = resume.recovered.sealed;
    outcome.replay_bit_exact =
        stats_fingerprint(resume.report.per_class) ==
        stats_fingerprint(replayed.front().per_class);
    outcome.ledger = resume.report.ledger;
    report.reps.push_back(outcome);
  }
  return report;
}

std::string render_chaos_report(const ChaosReport& report) {
  std::ostringstream out;
  out << "{\"schema\":\"chaos1\",\"replications\":" << report.reps.size()
      << ",\"all_exact\":" << render_bool(report.all_exact()) << "}\n";
  for (const ChaosRepOutcome& r : report.reps) {
    out << "{\"rep\":" << r.rep << ",\"seed\":" << r.seed
        << ",\"journal_bytes\":" << r.journal_bytes
        << ",\"kill_offset\":" << r.kill_offset
        << ",\"records_recovered\":" << r.records_recovered
        << ",\"requests_recovered\":" << r.requests_recovered
        << ",\"sealed\":" << render_bool(r.sealed)
        << ",\"replay_bit_exact\":" << render_bool(r.replay_bit_exact)
        << ",\"ledger\":" << r.ledger.render_json() << "}\n";
  }
  return out.str();
}

}  // namespace pushpull::serve
