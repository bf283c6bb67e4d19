#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.hpp"
#include "core/hybrid_server.hpp"
#include "metrics/class_stats.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "resilience/overload.hpp"
#include "serve/clock.hpp"
#include "serve/completion_queue.hpp"
#include "serve/journal.hpp"
#include "serve/load_driver.hpp"
#include "serve/record.hpp"
#include "serve/serve_config.hpp"
#include "workload/population.hpp"

namespace pushpull::serve {

/// What one live run produced. Every field is a pure function of the
/// processed event sequence, so an accelerated run's rendered report is
/// byte-stable across repeats of the same seed.
struct ServeReport {
  bool accelerated = false;
  double duration = 0.0;
  double target_qps = 0.0;
  /// Serve-time instant of the last settled request (broadcast units).
  double end_time = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t served = 0;
  std::uint64_t push_transmissions = 0;
  std::uint64_t pull_transmissions = 0;
  /// arrivals / end_time — the load actually absorbed, against target_qps.
  double achieved_qps = 0.0;
  /// Time-weighted mean pull-queue length (same integral as the DES).
  double mean_pull_queue_len = 0.0;
  std::size_t max_pull_queue_len = 0;
  /// Pull-queue depth distribution, sampled at every queue transition.
  obs::QuantileSummary queue_depth;
  /// Completion-queue telemetry: events accepted + deepest backlog (zero
  /// for accelerated runs, which stream the plan without a queue).
  std::uint64_t cq_posted = 0;
  std::size_t cq_high_water = 0;
  std::vector<metrics::ClassStats> per_class;

  // --- robustness (populated/rendered only when config.robust()) ----------
  bool robust = false;
  std::uint64_t timed_out = 0;
  std::uint64_t retries = 0;
  std::uint64_t lost = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t corrupted_push_transmissions = 0;
  std::uint64_t corrupted_pull_transmissions = 0;
  std::uint64_t hedges_posted = 0;
  std::uint64_t hedges_absorbed = 0;
  std::uint64_t ladder_transitions = 0;
  resilience::OverloadLevel max_overload_level =
      resilience::OverloadLevel::kNormal;
  /// Every ladder move in event order (mirrors core::SimResult's log).
  std::vector<resilience::OverloadTransition> overload_transitions;
  bool drained = false;
  double drain_time = 0.0;
  /// Planned arrivals never injected because the drain stopped admission.
  std::uint64_t skipped_arrivals = 0;
  /// The machine-checked conservation identity (DESIGN §10), also sealed
  /// into the journal footer.
  ConservationLedger ledger;
};

/// Deterministic multi-line rendering (obs::render_number throughout): a
/// summary JSON line, then one line per class with mean/p50/p95/p99 wait.
/// Robustness fields are appended only for robust configs, so plain runs
/// render byte-identically to previous releases. Shared by the CLI and the
/// reproducibility tests.
[[nodiscard]] std::string render_serve_report(const ServeReport& report);

/// The live serving driver around core::HybridServer (DESIGN §9). The
/// engine makes every scheduling decision — push/pull alternation,
/// admission and shedding, deadlines, retries, hedges, the overload ladder,
/// the drain's flush. This class only feeds it arrivals and time, journals
/// what it hears through a core::RunListener, and turns the engine's counts
/// into a ServeReport with a machine-checked conservation ledger.
///
///  * run_accelerated — single-threaded: the driver's plan streams through
///    the engine's event kernel in place, so the run is a pure function of
///    the seed, and `pushpull replay` of its journal re-runs the same engine
///    over the same requests bit-for-bit;
///  * run_realtime — pacer threads post wall-stamped arrivals to the
///    completion queue; the loop runs the engine up to each arrival's
///    observed stamp before handing it in, and between arrivals up to the
///    wall clock, so transmissions end as the wall passes their logical
///    ends. Arrival skew is real and recorded. SIGTERM (via set_drain_flag)
///    or drain_after triggers the graceful drain: admission stops, the pull
///    side flushes, the journal seals with the conservation ledger.
class LiveServer {
 public:
  LiveServer(const catalog::Catalog& cat,
             const workload::ClientPopulation& pop, ServeConfig config);

  /// Runs the driver's untaken plan on the engine's virtual clock.
  /// `recorder` (may be null) receives every arrival and scheduling
  /// decision.
  [[nodiscard]] ServeReport run_accelerated(LoadDriver& driver,
                                            TraceRecorder* recorder);

  /// Consumes `planned` arrivals from `queue` (fed by LoadDriver pacers on
  /// `clock`), runs until all are settled (or the drain flushes), then
  /// reports. The queue must be closed by the producer side when the load
  /// ends.
  [[nodiscard]] ServeReport run_realtime(CompletionQueue& queue, Clock& clock,
                                         std::uint64_t planned,
                                         TraceRecorder* recorder);

  /// Optional trace hook for the engine's events (transmissions, queue,
  /// fault, ladder, hedge, drain). A default-constructed tracer is inert.
  void set_tracer(const obs::Tracer& tracer) { engine_.set_tracer(tracer); }

  /// Installs the external drain request flag (SIGTERM handler target).
  /// Polled by run_realtime; null disables.
  void set_drain_flag(const std::atomic<bool>* flag) noexcept {
    drain_flag_ = flag;
  }

 private:
  ServeConfig config_;
  core::HybridServer engine_;
  const std::atomic<bool>* drain_flag_ = nullptr;
};

}  // namespace pushpull::serve
