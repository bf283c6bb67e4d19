#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "catalog/catalog.hpp"
#include "core/config.hpp"
#include "fault/fault_config.hpp"
#include "metrics/float_compare.hpp"
#include "resilience/overload.hpp"
#include "sched/pull/policy.hpp"
#include "sched/push/push_scheduler.hpp"
#include "workload/population.hpp"

namespace pushpull::serve {

/// Everything one live serving run needs: the workload universe (the §5.1
/// scenario parameters, so the live server and the DES speak the same
/// catalog), the scheduler knobs, the serving-specific execution knobs,
/// and the live failure model (DESIGN §10).
///
/// Robustness defaults are inert: with deadlines, faults, the ladder,
/// hedging and drain all off, the engine derives no extra streams and
/// schedules no timers. Every mechanism runs inside core::HybridServer
/// (hybrid() forwards the failure model; drain_after becomes a
/// HybridServer::drain call), so `pushpull replay` re-runs any recording
/// through the same engine and rep 0 reproduces the live run bit-for-bit.
struct ServeConfig {
  // --- workload universe (mirrors exp::Scenario) --------------------------
  std::size_t num_items = 100;
  double theta = 0.60;
  std::size_t num_classes = 3;
  double class_zipf_theta = 1.0;
  std::uint32_t min_length = 1;
  std::uint32_t max_length = 5;
  double mean_length = 2.0;

  // --- scheduler ----------------------------------------------------------
  std::size_t cutoff = 40;
  double alpha = 0.5;
  sched::PullPolicyKind pull_policy = sched::PullPolicyKind::kImportance;
  sched::PushPolicyKind push_policy = sched::PushPolicyKind::kFlat;
  /// Forwarded to HybridConfig: the live channel is unconstrained, so the
  /// Poisson demand never blocks, but the engine still draws it per pull.
  double mean_bandwidth_demand = 1.0;

  // --- serving ------------------------------------------------------------
  /// Load-generation horizon in broadcast units (at time_scale 1 a
  /// broadcast unit is one wall second, so this reads as seconds).
  double duration = 50.0;
  /// Open-loop offered load: mean request arrivals per broadcast unit.
  double target_qps = 5.0;
  std::uint64_t seed = 20050614;
  /// true = virtual clock, the event loop advances time itself (fast and
  /// bit-reproducible); false = wall clock, the load driver paces arrivals
  /// in real time.
  bool accelerated = false;
  /// Broadcast units per wall second on the wall clock (ignored when
  /// accelerated). 1.0 = real time; 10.0 = 10x fast-forward.
  double time_scale = 1.0;
  /// Producer threads pacing arrivals in wall-clock mode. The *plan* is
  /// pacer-count-invariant (synthesized upfront from one generator); pacers
  /// only affect how faithfully it is paced. Ignored when accelerated.
  std::size_t pacers = 1;
  /// Completion-queue bound; a full queue backpressures the pacers.
  std::size_t queue_capacity = 1024;

  // --- robustness (live failure model, DESIGN §10) ------------------------
  /// Mean of the exponential per-request deadline in broadcast units (the
  /// client's patience, drawn from the seeded "patience" stream at arm
  /// time exactly as the DES impatience model does). <= 0 disables
  /// deadlines: no stream is derived and no timer is armed.
  double mean_deadline = 0.0;
  /// Per-class multipliers on each deadline draw, applied after the draw;
  /// empty = all 1.0.
  std::vector<double> deadline_scale;
  /// Deadline-tightening spike (chaos): draws armed inside
  /// [spike_start, spike_start + spike_duration) are multiplied by
  /// `deadline_spike_factor`. factor == 1 or duration <= 0 disables.
  double deadline_spike_factor = 1.0;
  double deadline_spike_start = 0.0;
  double deadline_spike_duration = 0.0;
  /// Burst-error downlink, bounded pull queue with shedding, and the
  /// bounded-exponential-backoff retry policy — the same fault::FaultConfig
  /// the DES consumes, applied to the live loop. Defaults are inert.
  fault::FaultConfig fault;
  /// Overload degradation ladder (shed-low → widen-push →
  /// admission-control → brownout); transitions are stamped into the sv2
  /// decision log. Defaults off.
  resilience::OverloadConfig overload;
  /// Hedged re-request: a pull request still queued this many broadcast
  /// units after admission posts a duplicate (synthetic id) into its
  /// item's queue entry, boosting the entry's aggregate importance so the
  /// scheduler reaches it sooner. <= 0 disables.
  double hedge_after = 0.0;
  /// Test hook: stop admission at this serve-time instant and drain
  /// (flush the pull queue, seal the journal, report the conservation
  /// ledger). SIGTERM triggers the same path in realtime mode. <= 0
  /// disables.
  double drain_after = 0.0;
  /// v2 journal: fsync after this many appended records when recording to
  /// a file-backed JournalFile (0 = sync only at seal).
  std::size_t journal_sync_every = 64;

  /// Rejects unusable values (zero counts/capacity, non-positive duration,
  /// target_qps, time_scale or lengths, cutoff beyond the catalog, bad
  /// deadline/fault/ladder/hedge parameters) with a std::invalid_argument
  /// naming the offending field.
  void validate() const;

  /// Deadline multiplier for a class (1.0 when deadline_scale is empty).
  [[nodiscard]] double deadline_scale_for(std::size_t cls) const noexcept {
    return cls < deadline_scale.size() ? deadline_scale[cls] : 1.0;
  }

  /// True when the deadline-tightening spike can fire.
  [[nodiscard]] bool deadline_spike_enabled() const noexcept {
    return !metrics::exactly_equal(deadline_spike_factor, 1.0) &&
           deadline_spike_duration > 0.0;
  }

  /// True when any live robustness mechanism is on (deadlines, faults,
  /// ladder, hedging or drain) — the report then renders its robustness
  /// fields. The journal header carries them either way.
  [[nodiscard]] bool robust() const noexcept;

  /// The engine configuration — what LiveServer runs and what `pushpull
  /// replay` re-runs a recording through. mean_deadline maps to
  /// mean_patience and the deadline scale/spike to the patience
  /// scale/spike; fault, overload and hedge_after are forwarded verbatim.
  /// drain_after is no engine field: drivers call HybridServer::drain.
  [[nodiscard]] core::HybridConfig hybrid() const;

  /// Materializes the catalog exactly as exp::Scenario::build would
  /// (Zipf(theta) popularities, truncated-geometric lengths from `seed`).
  [[nodiscard]] catalog::Catalog build_catalog() const;

  /// Materializes the class population (Zipf class mix, priorities N..1).
  [[nodiscard]] workload::ClientPopulation build_population() const;
};

}  // namespace pushpull::serve
