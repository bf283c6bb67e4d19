#include "resilience/overload.hpp"

#include <cmath>
#include <stdexcept>

namespace pushpull::resilience {

std::string_view to_string(OverloadLevel level) noexcept {
  switch (level) {
    case OverloadLevel::kNormal: return "normal";
    case OverloadLevel::kShedLowPriority: return "shed-low-priority";
    case OverloadLevel::kWidenPush: return "widen-push";
    case OverloadLevel::kAdmissionControl: return "admission-control";
    case OverloadLevel::kBrownout: return "brownout";
  }
  return "?";
}

void OverloadConfig::validate() const {
  if (!(eval_interval > 0.0) || !std::isfinite(eval_interval)) {
    throw std::invalid_argument(
        "OverloadConfig: eval_interval must be positive and finite, got " +
        std::to_string(eval_interval));
  }
  if (!(ewma_alpha > 0.0) || !(ewma_alpha <= 1.0)) {
    throw std::invalid_argument(
        "OverloadConfig: ewma_alpha must be in (0, 1], got " +
        std::to_string(ewma_alpha));
  }
  if (!(blocking_ref > 0.0) || !std::isfinite(blocking_ref)) {
    throw std::invalid_argument(
        "OverloadConfig: blocking_ref must be positive and finite, got " +
        std::to_string(blocking_ref));
  }
  if (capacity_ref == 0) {
    throw std::invalid_argument(
        "OverloadConfig: capacity_ref must be >= 1 (it is the occupancy "
        "denominator and soft cap when no hard queue cap is set)");
  }
  double prev_enter = 0.0;
  for (std::size_t i = 0; i < enter.size(); ++i) {
    if (!(enter[i] > 0.0) || !std::isfinite(enter[i])) {
      throw std::invalid_argument(
          "OverloadConfig: enter thresholds must be positive and finite");
    }
    if (!(enter[i] >= prev_enter)) {
      throw std::invalid_argument(
          "OverloadConfig: enter thresholds must be non-decreasing "
          "(escalation gets harder, never easier)");
    }
    if (!(exit[i] < enter[i]) || !(exit[i] >= 0.0)) {
      throw std::invalid_argument(
          "OverloadConfig: exit[" + std::to_string(i) +
          "] must be in [0, enter[" + std::to_string(i) +
          ")) so levels are sticky (hysteresis)");
    }
    prev_enter = enter[i];
  }
}

OverloadController::OverloadController(OverloadConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

OverloadLevel OverloadController::update(double now, double occupancy,
                                         double blocking_ewma,
                                         const obs::Tracer& tracer) {
  if (!config_.enabled) return level_;
  const double pressure =
      std::max(occupancy, blocking_ewma / config_.blocking_ref);
  const int at = static_cast<int>(level_);
  OverloadLevel next = level_;
  // At most one rung per evaluation, in either direction: escalation is
  // paced (a spike cannot jump straight to brownout between evaluations)
  // and de-escalation unwinds level by level as pressure drains.
  if (at < kNumOverloadLevels - 1 &&
      pressure >= config_.enter[static_cast<std::size_t>(at)]) {
    next = static_cast<OverloadLevel>(at + 1);
  } else if (at > 0 &&
             pressure <= config_.exit[static_cast<std::size_t>(at - 1)]) {
    next = static_cast<OverloadLevel>(at - 1);
  }
  if (next != level_) {
    transitions_.push_back(
        OverloadTransition{now, level_, next, occupancy, blocking_ewma});
    tracer.emit<obs::Category::kLadder>(
        now, "transition", static_cast<std::uint64_t>(level_),
        static_cast<std::uint64_t>(next), occupancy);
    level_ = next;
    if (static_cast<int>(level_) > static_cast<int>(max_level_)) {
      max_level_ = level_;
    }
  }
  return level_;
}

void OverloadController::reset() {
  level_ = OverloadLevel::kNormal;
  max_level_ = OverloadLevel::kNormal;
  transitions_.clear();
}

}  // namespace pushpull::resilience
