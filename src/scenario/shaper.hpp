#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "scenario/timeline.hpp"
#include "workload/request.hpp"
#include "workload/trace.hpp"

namespace pushpull::scenario {

/// Bookkeeping from one shaping pass, the ground truth the
/// conservation-across-handoff invariant audits: every base request must
/// end up either offered to the server or counted handoff-lost, per class.
struct ShapeSummary {
  /// False for the identity pass (empty timeline) — downstream consumers
  /// can skip scenario columns/checks entirely.
  bool active = false;
  /// Requests per class in the base trace, before shaping.
  std::vector<std::uint64_t> base_per_class;
  /// Requests per class in the shaped trace (base - handoff losses).
  std::vector<std::uint64_t> offered_per_class;
  /// Requests per class dropped mid-handoff (the in-flight pull that the
  /// target cell never hears about).
  std::vector<std::uint64_t> handoff_lost;
  /// Requests that migrated cells and survived (re-homed with the handoff
  /// latency added to their arrival).
  std::uint64_t rehomed = 0;
  /// Requests whose item moved under a non-zero rotation.
  std::uint64_t rotated = 0;

  [[nodiscard]] std::uint64_t total_base() const noexcept;
  [[nodiscard]] std::uint64_t total_lost() const noexcept;
};

/// A shaped trace plus its audit trail. When shaping ran with `cells > 1`,
/// `home` and `cell` give each surviving request's hash-derived home cell
/// and the cell that actually serves it (different exactly for re-homed
/// requests); both are empty for single-cell shaping.
struct ShapedTrace {
  workload::Trace trace;
  ShapeSummary summary;
  std::vector<std::uint32_t> home;
  std::vector<std::uint32_t> cell;
};

/// Outcome of the per-request mobility draw — exposed so tests can pin the
/// hash-derived decisions and the multicell runner agrees with the shaper
/// by construction.
struct HandoffDraw {
  bool migrates = false;
  bool lost = false;
  /// Handoff latency added to a re-homed request's arrival (0 otherwise).
  double delay = 0.0;
};

/// Fraction of migrating requests lost in flight, and the latency window
/// a surviving migration lands in. Fixed constants of the mobility model
/// (documented in DESIGN.md §12).
inline constexpr double kHandoffLossFraction = 0.25;
inline constexpr double kHandoffDelayMin = 0.25;
inline constexpr double kHandoffDelayMax = 1.25;

/// The stateless mobility decision for one request: counter-based hashing
/// of (seed, id) through SplitMix64 — no RNG engine, no stream state, so
/// the draw is independent of request order and of how many other requests
/// exist (detlint D2/D5 stay clean and parallel replications stay
/// bit-identical).
[[nodiscard]] HandoffDraw handoff_draw(std::uint64_t seed,
                                       workload::RequestId id, double prob);

/// Hash-derived home cell of a request (uniform over [0, cells)).
[[nodiscard]] std::size_t home_cell(std::uint64_t seed,
                                    workload::RequestId id,
                                    std::size_t cells);

/// Hash-derived handoff target: a cell different from `home` whenever
/// cells > 1.
[[nodiscard]] std::size_t handoff_target(std::uint64_t seed,
                                         workload::RequestId id,
                                         std::size_t home, std::size_t cells);

/// Applies a timeline to a recorded trace, RNG-free:
///
///  1. arrival warp — each arrival u moves to Λ⁻¹(u) (see Timeline), so
///     the instantaneous rate follows the timeline's multiplier while the
///     request population is untouched;
///  2. rotation — each item i becomes (i + rotation_at(t)) mod D at its
///     warped time t, the moving-Zipf drift;
///  3. mobility — at warped time t each request migrates with probability
///     handoff_prob_at(t) (counter-hashed on (seed, id)); a migrating
///     request is lost with kHandoffLossFraction, otherwise re-homed with
///     a hash-derived latency in [kHandoffDelayMin, kHandoffDelayMax).
///
/// Surviving requests keep their original ids and are re-sorted by
/// (arrival, id) only when a handoff latency broke that order. Ids are
/// unique, so the order is total and the result does not depend on the
/// sort. An empty timeline returns the trace unchanged with an inactive
/// summary. The identity base_per_class == offered_per_class +
/// handoff_lost holds per class by construction and is re-verified
/// downstream by resilience::check_invariants.
///
/// The base is taken by value and shaped in its own buffer, so a caller
/// that moves its trace in holds one trace, not a copy per stage; with
/// `cells` = 1 shaping allocates nothing proportional to the trace.
[[nodiscard]] ShapedTrace shape_trace(workload::Trace base,
                                      const Timeline& timeline,
                                      std::uint64_t seed,
                                      std::size_t num_items,
                                      std::size_t num_classes,
                                      std::size_t cells = 1);

}  // namespace pushpull::scenario
