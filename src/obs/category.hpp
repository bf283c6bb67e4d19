#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace pushpull::obs {

/// Trace-event taxonomy. One bit per category so masks compose: the
/// runtime gate (`ObsConfig::categories`) is a plain bitmask.
///
///   push    broadcast-channel transmissions (tx_start/tx_end)
///   pull    on-demand transmissions, incl. bandwidth blocking
///   queue   pull-queue membership changes + event-queue high-water marks
///   cutoff  cutoff-point moves: optimizer scan samples, widen-push boosts
///   fault   burst-error channel flips, corruptions, retries, losses
///   crash   server crashes, snapshots, recoveries, re-request storms
///   ladder  overload degradation-ladder transitions and rejections
///   timeout live-path request-deadline expiries
///   retry   live-path re-request scheduling after a corrupted pull
///   drain   live-path drain lifecycle (admission stop, journal seal)
enum class Category : std::uint32_t {
  kPush = 1u << 0,
  kPull = 1u << 1,
  kQueue = 1u << 2,
  kCutoff = 1u << 3,
  kFault = 1u << 4,
  kCrash = 1u << 5,
  kLadder = 1u << 6,
  kTimeout = 1u << 7,
  kRetry = 1u << 8,
  kDrain = 1u << 9,
};

inline constexpr std::uint32_t kAllCategories = 0x3FFu;

[[nodiscard]] constexpr std::uint32_t category_bit(Category c) noexcept {
  return static_cast<std::uint32_t>(c);
}

/// Short lowercase name ("push", "ladder", ...).
[[nodiscard]] std::string_view to_string(Category c) noexcept;

/// Parses a comma-separated category list ("push,pull,queue") into a mask;
/// "all" means every category. Throws std::invalid_argument naming an
/// unknown category.
[[nodiscard]] std::uint32_t parse_categories(std::string_view csv);

/// Renders a mask as the canonical comma-separated list, in fixed
/// push,pull,queue,cutoff,fault,crash,ladder,timeout,retry,drain order
/// ("all" for the full mask, "none" for 0).
[[nodiscard]] std::string format_categories(std::uint32_t mask);

}  // namespace pushpull::obs
