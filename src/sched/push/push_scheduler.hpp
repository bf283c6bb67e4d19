#pragma once

#include <memory>
#include <string_view>

#include "catalog/catalog.hpp"

namespace pushpull::sched {

/// A push-side broadcast program over the push set [0, cutoff) of a
/// catalog: an infinite item sequence consumed one transmission at a time.
class PushScheduler {
 public:
  virtual ~PushScheduler() = default;

  /// Next item to broadcast. Precondition: the push set is non-empty.
  [[nodiscard]] virtual catalog::ItemId next() = 0;

  /// Restarts the program from its initial state.
  virtual void reset() = 0;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

enum class PushPolicyKind {
  kFlat,            // round-robin, the paper's push schedule
  kBroadcastDisks,  // Acharya et al. 1995 multi-disk baseline
  kSquareRootRule,  // Hameed & Vaidya 1999 frequency-optimal baseline
};

[[nodiscard]] std::string_view to_string(PushPolicyKind kind) noexcept;

/// Inverse of to_string ("flat", "broadcast-disks", "square-root-rule");
/// throws std::invalid_argument naming any other name.
[[nodiscard]] PushPolicyKind parse_push_policy(std::string_view name);

/// Creates a push scheduler over items [0, cutoff) of `cat`.
/// `cutoff` must be >= 1 (pure-pull systems simply never call the push
/// side; the factory still requires a non-empty program).
[[nodiscard]] std::unique_ptr<PushScheduler> make_push_scheduler(
    PushPolicyKind kind, const catalog::Catalog& cat, std::size_t cutoff);

}  // namespace pushpull::sched
