#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace pushpull::runtime {

/// Monotonic stopwatch for job/run wall times. This is the one sanctioned
/// wall-clock reader in the tree: it feeds telemetry (wall_ms fields in
/// JSONL progress lines) and never simulation state, so replay stays
/// bit-exact — hence the detlint D1 exemptions below.
class StopWatch {
 public:
  // detlint:allow(D1): wall-clock telemetry only, never feeds sim state
  StopWatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsed_ms() const {
    // detlint:allow(D1): wall-clock telemetry only, never feeds sim state
    const auto dt = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(dt).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;  // detlint:allow(D1): telemetry
};

/// Structured progress/telemetry sink for parallel runs.
///
/// Emits one JSON object per line (JSONL) so long sweeps can be tailed and
/// machine-parsed while they run:
///
///   {"event":"run_start","label":"replicate","jobs":20,"workers":4}
///   {"event":"payload","id":3,"payload":"rp1 3 ..."}
///   {"event":"job","id":3,"wall_ms":12.504,"outcome":"ok"}
///   {"event":"job","id":5,"wall_ms":0.291,"outcome":"error","detail":"..."}
///   {"event":"run_end","label":"replicate","jobs":20,"wall_ms":131.882}
///
/// `payload` records carry a job's serialized result, which is what makes a
/// killed run resumable (see runtime::CheckpointStore).
///
/// Thread-safe: workers report concurrently and each line (text plus its
/// newline) is written under a lock as a single buffered write followed by
/// a flush, so a crash can truncate at most the final record — never
/// interleave or tear earlier ones. The reporter observes completion order
/// (telemetry), never influences result order (determinism lives in
/// JobResult).
class RunReporter {
 public:
  /// Writes to `out`, which must outlive the reporter. Not owned.
  explicit RunReporter(std::ostream& out) : out_(&out) {}

  RunReporter(const RunReporter&) = delete;
  RunReporter& operator=(const RunReporter&) = delete;

  void run_started(std::string_view label, std::size_t num_jobs,
                   std::size_t workers);
  /// Stamps the file with the payload schema tag and a fingerprint of the
  /// run's inputs (scenario, config, job count). Written once, before any
  /// payload record (replicate_hybrid writes it just before run_start);
  /// CheckpointStore refuses to resume against a file whose context
  /// disagrees, which catches the classic footgun of pointing --resume at
  /// a checkpoint from a different experiment.
  void run_context(std::string_view schema, std::uint64_t fingerprint);
  void job_finished(std::size_t job_id, double wall_ms, bool ok,
                    std::string_view detail = {});
  /// Records a job's serialized result so a killed run can resume without
  /// recomputing it. Written by the job itself, before its `job` line.
  void job_payload(std::size_t job_id, std::string_view payload);
  void run_finished(std::string_view label, std::size_t num_jobs,
                    double wall_ms);

 private:
  void write_line(const std::string& line);
  /// Appends `s` JSON-escaped (quotes, backslashes, control chars).
  static void append_escaped(std::string& buf, std::string_view s);
  /// Fixed-point, locale-independent "%.3f" formatting for wall times.
  static std::string format_ms(double ms);

  std::mutex mu_;
  std::ostream* out_;
};

}  // namespace pushpull::runtime
