#include "scenario/presets.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace pushpull::scenario {

std::string_view to_string(Preset preset) noexcept {
  switch (preset) {
    case Preset::kNone:
      return "none";
    case Preset::kDiurnal:
      return "diurnal";
    case Preset::kFlashcrowd:
      return "flashcrowd";
    case Preset::kCommuter:
      return "commuter";
    case Preset::kKitchenSink:
      return "kitchen-sink";
  }
  return "none";
}

Preset parse_preset(const std::string& name) {
  for (Preset p : {Preset::kNone, Preset::kDiurnal, Preset::kFlashcrowd,
                   Preset::kCommuter, Preset::kKitchenSink}) {
    if (name == to_string(p)) return p;
  }
  throw std::invalid_argument(
      "unknown scenario preset '" + name +
      "' (valid: none, diurnal, flashcrowd, commuter, kitchen-sink)");
}

namespace {

/// Builder scoped to one (intensity, num_items) pair so the preset tables
/// below read as plain shape descriptions.
class PresetBuilder {
 public:
  PresetBuilder(double intensity, std::size_t num_items)
      : intensity_(intensity), n_(num_items) {}

  /// Rate multiplier with its deviation from 1 scaled by intensity,
  /// floored so the warp stays invertible at extreme intensities.
  [[nodiscard]] double rate(double nominal) const {
    return std::max(0.05, 1.0 + intensity_ * (nominal - 1.0));
  }

  /// Handoff probability scaled by intensity, capped below 1 so shaping
  /// never deletes a whole segment's requests.
  [[nodiscard]] double handoff(double nominal) const {
    return std::clamp(nominal * intensity_, 0.0, 0.9);
  }

  /// Rotation of `num`/`den` of the catalog (at least 1 item when the
  /// fraction rounds to zero on tiny catalogs).
  [[nodiscard]] std::size_t turn(std::size_t num, std::size_t den) const {
    return std::max<std::size_t>(1, n_ * num / den) % std::max<std::size_t>(
               1, n_);
  }

  void segment(double duration, double rate_begin, double rate_end,
               std::size_t rotation, double handoff_prob) {
    segments_.push_back(
        Segment{duration, rate_begin, rate_end, rotation, handoff_prob});
  }

  [[nodiscard]] Timeline build() { return Timeline(std::move(segments_)); }

 private:
  double intensity_;
  std::size_t n_;
  std::vector<Segment> segments_;
};

}  // namespace

Timeline make_timeline(Preset preset, double intensity, double horizon,
                       std::size_t num_items) {
  if (preset == Preset::kNone) return Timeline{};
  if (!(intensity > 0.0) || !std::isfinite(intensity)) {
    throw std::invalid_argument(
        "make_timeline: intensity must be positive finite");
  }
  if (!(horizon > 0.0) || !std::isfinite(horizon)) {
    throw std::invalid_argument(
        "make_timeline: horizon must be positive finite");
  }
  if (num_items == 0) {
    throw std::invalid_argument("make_timeline: num_items must be >= 1");
  }
  PresetBuilder b(intensity, num_items);
  const double h = horizon;
  switch (preset) {
    case Preset::kNone:
      break;  // unreachable (early-returned above); keeps -Wswitch quiet
    case Preset::kDiurnal: {
      // One "day" across the horizon: night trough, morning ramp to the
      // midday peak, afternoon ease-off with interests shifting an eighth
      // of the catalog, evening decay. Nominal mean multiplier ≈ 1 so the
      // preset reshapes load without changing the total offered volume.
      const double q = h / 4.0;
      b.segment(q, b.rate(0.6), b.rate(0.6), 0, 0.0);
      b.segment(q, b.rate(0.6), b.rate(1.6), 0, 0.0);
      b.segment(q, b.rate(1.6), b.rate(1.0), b.turn(1, 8), 0.0);
      b.segment(q, b.rate(1.0), b.rate(0.6), b.turn(1, 8), 0.0);
      break;
    }
    case Preset::kFlashcrowd: {
      // Quiet baseline, then a crowd arrives: the rate ramps to 1 + 3i and
      // the hot set jumps half the catalog at the same instant — exactly
      // the shift that leaves a statically-tuned cutoff serving yesterday's
      // prefix (the adaptive re-optimizer's showcase, gated by
      // AdaptiveServer.BeatsStaticCutoffUnderFlashcrowd).
      const double peak = 1.0 + 3.0 * intensity;
      b.segment(0.4 * h, 1.0, 1.0, 0, 0.0);
      b.segment(0.1 * h, 1.0, peak, b.turn(1, 2), 0.0);
      b.segment(0.2 * h, peak, peak, b.turn(1, 2), 0.0);
      b.segment(0.3 * h, peak, 1.0, b.turn(1, 2), 0.0);
      break;
    }
    case Preset::kCommuter: {
      // Morning and evening handoff waves with mild load bumps; interests
      // creep an eighth of the catalog per phase (commuters carry their
      // sessions across cells, so mobility and drift arrive together).
      const double s = h / 6.0;
      b.segment(s, b.rate(1.2), b.rate(1.2), 0, b.handoff(0.30));
      b.segment(s, 1.0, 1.0, b.turn(1, 8), 0.0);
      b.segment(s, b.rate(1.1), b.rate(1.1), b.turn(1, 8), b.handoff(0.10));
      b.segment(s, 1.0, 1.0, b.turn(1, 4), 0.0);
      b.segment(s, b.rate(1.3), b.rate(1.3), b.turn(1, 4), b.handoff(0.35));
      b.segment(s, b.rate(0.8), b.rate(0.8), b.turn(3, 8), 0.0);
      break;
    }
    case Preset::kKitchenSink: {
      // Everything at once: the diurnal envelope, a flash crowd landing on
      // the midday shoulder, and commuter handoff waves morning and
      // evening, with the hot set three quarters around by close of play.
      const double s = h / 8.0;
      const double peak = 1.0 + 2.5 * intensity;
      b.segment(s, b.rate(0.6), b.rate(0.8), 0, 0.0);
      b.segment(s, b.rate(0.8), b.rate(1.4), 0, b.handoff(0.25));
      b.segment(s, b.rate(1.4), b.rate(1.2), b.turn(1, 8), 0.0);
      b.segment(s, b.rate(1.2), peak, b.turn(1, 2), 0.0);
      b.segment(s, peak, peak, b.turn(1, 2), b.handoff(0.15));
      b.segment(s, peak, b.rate(1.1), b.turn(5, 8), 0.0);
      b.segment(s, b.rate(1.1), b.rate(0.9), b.turn(5, 8), b.handoff(0.30));
      b.segment(s, b.rate(0.9), b.rate(0.6), b.turn(3, 4), 0.0);
      break;
    }
  }
  return b.build();
}

}  // namespace pushpull::scenario
