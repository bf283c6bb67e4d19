#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace pushpull::resilience {

/// The degradation ladder, in escalation order. Each level keeps every
/// action of the levels below it active:
///
///   normal -> shed-low-priority -> widen-push -> admission-control -> brownout
///
///  * shed-low-priority  — overload shedding switches to evicting the
///    lowest-priority queued request (and a soft queue cap engages when no
///    hard cap is configured);
///  * widen-push         — the push cutoff K grows by `cutoff_step`, so the
///    hottest pull items ride the broadcast instead of the queue (sheds
///    pull load fairly to users, not items);
///  * admission-control  — arrivals of the lowest-priority class are
///    rejected at the uplink;
///  * brownout           — only the most important class is admitted.
enum class OverloadLevel : int {
  kNormal = 0,
  kShedLowPriority = 1,
  kWidenPush = 2,
  kAdmissionControl = 3,
  kBrownout = 4,
};

inline constexpr int kNumOverloadLevels = 5;

[[nodiscard]] std::string_view to_string(OverloadLevel level) noexcept;

/// One ordered ladder transition, as logged by the controller.
struct OverloadTransition {
  double time = 0.0;
  OverloadLevel from = OverloadLevel::kNormal;
  OverloadLevel to = OverloadLevel::kNormal;
  /// The inputs that drove the move, for the report.
  double occupancy = 0.0;
  double blocking_ewma = 0.0;
};

/// Degradation-ladder parameters. Disabled by default; a disabled ladder
/// schedules no evaluation events and is bit-invisible in simulation
/// output.
struct OverloadConfig {
  bool enabled = false;

  /// Virtual time between controller evaluations.
  double eval_interval = 5.0;

  /// Smoothing factor of the per-class blocking EWMA (weight of the newest
  /// observation).
  double ewma_alpha = 0.1;

  /// Blocking EWMA that counts as "pressure 1.0" — the controller input is
  /// max(occupancy, ewma / blocking_ref).
  double blocking_ref = 0.5;

  /// Occupancy denominator when no hard pull-queue cap is configured; also
  /// the soft cap that engages at shed-low-priority and above.
  std::size_t capacity_ref = 64;

  /// How many catalog items the push set grows by at widen-push and above.
  std::size_t cutoff_step = 10;

  /// Pressure needed to climb from level i to i+1...
  std::array<double, 4> enter{0.60, 0.75, 0.85, 0.95};
  /// ...and the pressure below which level i+1 relaxes back to i. Strictly
  /// below `enter` so levels are sticky (hysteresis).
  std::array<double, 4> exit{0.45, 0.60, 0.70, 0.80};

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// The ladder state machine. Pure and deterministic: feed it (time,
/// occupancy, blocking EWMA) observations; it moves at most one level per
/// update, applies the enter/exit hysteresis bands, and logs every
/// transition as an ordered event.
class OverloadController {
 public:
  OverloadController() = default;
  explicit OverloadController(OverloadConfig config);

  /// One evaluation step. `occupancy` is queue fill (pending / capacity);
  /// `blocking_ewma` the worst per-class blocking EWMA. Returns the level
  /// in force after the step. When the level moves it emits a
  /// ladder-category "transition" trace event (a=from, b=to, v=occupancy);
  /// the default tracer is inert, and tracing never changes the decision.
  OverloadLevel update(double now, double occupancy, double blocking_ewma,
                       const obs::Tracer& tracer = {});

  [[nodiscard]] OverloadLevel level() const noexcept { return level_; }
  [[nodiscard]] OverloadLevel max_level() const noexcept { return max_level_; }
  [[nodiscard]] const std::vector<OverloadTransition>& transitions()
      const noexcept {
    return transitions_;
  }
  [[nodiscard]] const OverloadConfig& config() const noexcept {
    return config_;
  }

  /// Back to normal with an empty log (run reuse).
  void reset();

 private:
  OverloadConfig config_;
  OverloadLevel level_ = OverloadLevel::kNormal;
  OverloadLevel max_level_ = OverloadLevel::kNormal;
  std::vector<OverloadTransition> transitions_;
};

}  // namespace pushpull::resilience
