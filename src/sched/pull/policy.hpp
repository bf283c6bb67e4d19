#pragma once

#include <limits>
#include <memory>
#include <string_view>

#include "sched/pull/entry.hpp"

namespace pushpull::sched {

/// A pull-queue selection policy: scores entries, highest score transmits
/// next. Stateless by design — all request state lives in the PullEntry —
/// so one policy instance can serve any number of concurrent simulations.
class PullPolicy {
 public:
  virtual ~PullPolicy() = default;

  /// Higher is more urgent. Ties are broken by the queue (lowest item id)
  /// so runs are deterministic.
  [[nodiscard]] virtual double score(const PullEntry& entry,
                                     const PullContext& ctx) const = 0;

  /// How score() reads its PullContext — the one declaration the indexed
  /// pull queue keys its caching on.
  enum class ContextUse {
    /// Never reads the context: a cached score stays valid until the entry
    /// itself mutates.
    kEntryOnly,
    /// Reads only expected_queue_len, as a factor: in exact arithmetic
    /// score(e, ctx) = ctx.expected_queue_len × scaled_key(e), and every
    /// term of the score is non-negative.
    kScaledByQueueLen,
    /// Anything else (RxW, LWF, aging at a positive rate): rescored in full.
    kFull,
  };

  /// Defaults to kFull: a policy that forgets to override only loses the
  /// caching speedup, never correctness.
  [[nodiscard]] virtual ContextUse context_use() const noexcept {
    return ContextUse::kFull;
  }

  /// kScaledByQueueLen only: the score at expected_queue_len = 1, which the
  /// queue caches per entry, or NaN for an entry outside the domain where
  /// the policy's rounding bound holds (DESIGN §13). NaN sends the queue to
  /// the reference scan; it is the default, so a policy that declares
  /// kScaledByQueueLen without vouching for its keys stays correct.
  [[nodiscard]] virtual double scaled_key(const PullEntry&) const {
    return std::numeric_limits<double>::quiet_NaN();
  }

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

/// The selection policies available to the hybrid server.
enum class PullPolicyKind {
  kFcfs,        // earliest first request wins
  kMrf,         // most pending requests first
  kStretch,     // stretch-optimal: max R_i / L_i²  (paper's α = 1 extreme)
  kPriority,    // max summed client priority Q_i   (paper's α = 0 extreme)
  kRxw,         // Aksoy–Franklin RxW baseline: R_i × waiting time
  kLwf,         // longest-total-wait-first: Σ_j (now − arrival_j)
  kImportance,  // the paper's Eq. 1: α·S_i + (1−α)·Q_i
  kImportanceQueueAware,  // the paper's Eq. 6 generalization
};

[[nodiscard]] std::string_view to_string(PullPolicyKind kind) noexcept;

/// Inverse of to_string ("fcfs", ..., "importance-q"); throws
/// std::invalid_argument naming any other name.
[[nodiscard]] PullPolicyKind parse_pull_policy(std::string_view name);

/// Creates a policy. `alpha` is only consulted by the importance policies.
[[nodiscard]] std::unique_ptr<PullPolicy> make_pull_policy(
    PullPolicyKind kind, double alpha = 0.5);

}  // namespace pushpull::sched
