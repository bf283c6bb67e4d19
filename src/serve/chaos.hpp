#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <functional>

#include "workload/trace.hpp"

#include "serve/journal.hpp"
#include "serve/live_server.hpp"
#include "serve/record.hpp"
#include "serve/serve_config.hpp"

namespace pushpull::serve {

/// What `pushpull serve --resume` produces: the salvaged journal prefix and
/// the report of deterministically re-running it.
struct ResumeResult {
  /// The longest valid prefix of the crashed journal (header + salvaged
  /// requests/decisions; `sealed` when the file was actually complete).
  RecoveredRun recovered;
  /// Report of re-running the recovered prefix through an accelerated
  /// LiveServer with the recorded config and seed. A pure function of the
  /// recovered bytes, so `pushpull replay` of the resumed journal
  /// reproduces these per-class statistics bit-for-bit.
  ServeReport report;
};

/// Crash recovery: salvages the longest valid prefix of the sv2 journal at
/// `journal_path` (std::runtime_error when even the header is gone),
/// re-runs it through an accelerated LiveServer, and — when `out_path`
/// is non-empty — records the re-run into a fresh *sealed* journal there,
/// conservation ledger and all.
[[nodiscard]] ResumeResult resume_from_journal(const std::string& journal_path,
                                               const std::string& out_path);

/// The `serve --chaos` failure cocktail: takes a base config and switches
/// on every robustness mechanism that is still at its inert default —
/// per-request deadlines, a mid-run deadline-tightening spike, the
/// Gilbert–Elliott burst-error channel with bounded-backoff retries, a
/// bounded pull queue with priority shedding, and the overload ladder.
/// Everything derives from the one base seed; knobs the caller already set
/// are left untouched.
[[nodiscard]] ServeConfig chaos_profile(ServeConfig base);

/// Chaos-harness execution knobs.
struct ChaosOptions {
  /// Independent kill/recover/resume/replay cycles (seed-decorrelated like
  /// replay reps).
  std::size_t replications = 5;
  /// Where the per-rep journal artifacts land (`serve_chaos_rep<k>.svj`,
  /// `..._killed.svj`, `..._resumed.svj`). Left on disk for audit/CI
  /// upload.
  std::string scratch_dir = ".";
  /// Optional plan transformer applied to each replication's synthesized
  /// trace before it is journaled. The CLI wires `--scenario` through this
  /// hook (the same plan-level shaping as plain `serve --scenario`); the
  /// journal then records the *shaped* requests, so the serve layer — and
  /// the whole recover/resume/replay chain — stays scenario-oblivious.
  /// Called with the rep's plan and that rep's (seed-decorrelated) config.
  std::function<workload::Trace(workload::Trace, const ServeConfig&)>
      shape_plan;
};

/// One kill/recover/resume/replay cycle's outcome.
struct ChaosRepOutcome {
  std::uint64_t rep = 0;
  std::uint64_t seed = 0;
  /// Size of the complete (pre-kill) journal.
  std::uint64_t journal_bytes = 0;
  /// Byte offset the crash-kill truncated the journal at (drawn from the
  /// "serve-chaos-kill" stream; always past the header record).
  std::uint64_t kill_offset = 0;
  /// Complete records salvaged from the truncated file (header included).
  std::uint64_t records_recovered = 0;
  std::uint64_t requests_recovered = 0;
  /// True when the kill offset happened to preserve the whole journal.
  bool sealed = false;
  /// True when `pushpull replay` of the resumed journal reproduced the
  /// resume run's per-class statistics bit-for-bit.
  bool replay_bit_exact = false;
  /// The resumed run's machine-checked conservation ledger.
  ConservationLedger ledger;
};

struct ChaosReport {
  std::vector<ChaosRepOutcome> reps;

  /// Every replication replayed bit-exactly.
  [[nodiscard]] bool all_exact() const noexcept;
};

/// The seeded chaos harness behind `pushpull serve --chaos`. Per
/// replication: run the config accelerated while journaling; crash-kill
/// the journal by truncating it at a random byte offset; recover the
/// longest valid prefix; resume (re-run + re-seal); replay the resumed
/// journal and compare per-class statistics bit-for-bit. Conservation is
/// machine-checked by every live run on the way (LiveServer throws on
/// imbalance). Deterministic: the whole report is a pure function of
/// (config, options).
[[nodiscard]] ChaosReport run_chaos(const ServeConfig& config,
                                    const ChaosOptions& options);

/// Deterministic rendering: a summary line, then one JSON line per
/// replication with the kill point, recovery extent, bit-exactness verdict
/// and conservation ledger.
[[nodiscard]] std::string render_chaos_report(const ChaosReport& report);

}  // namespace pushpull::serve
