#pragma once

#include <limits>
#include <stdexcept>

#include "metrics/float_compare.hpp"
#include "sched/pull/policy.hpp"

namespace pushpull::sched {

/// First-come-first-served: the item whose oldest request has waited
/// longest. The classic on-demand baseline; ignores batching entirely.
class FcfsPolicy final : public PullPolicy {
 public:
  [[nodiscard]] double score(const PullEntry& entry,
                             const PullContext&) const override {
    return -entry.first_arrival;
  }
  [[nodiscard]] ContextUse context_use() const noexcept override {
    return ContextUse::kEntryOnly;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fcfs";
  }
};

/// Most-requests-first: maximizes requests satisfied per transmission but
/// starves unpopular items and ignores lengths.
class MrfPolicy final : public PullPolicy {
 public:
  [[nodiscard]] double score(const PullEntry& entry,
                             const PullContext&) const override {
    return entry.num_requests();
  }
  [[nodiscard]] ContextUse context_use() const noexcept override {
    return ContextUse::kEntryOnly;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "mrf";
  }
};

/// Stretch-optimal (max-request min-service-time): R_i / L_i². The α = 1
/// extreme of the paper's importance factor — popularity-aware and
/// length-aware, but priority-blind.
class StretchPolicy final : public PullPolicy {
 public:
  [[nodiscard]] double score(const PullEntry& entry,
                             const PullContext&) const override {
    return entry.stretch();
  }
  [[nodiscard]] ContextUse context_use() const noexcept override {
    return ContextUse::kEntryOnly;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "stretch";
  }
};

/// Pure priority: maximum summed client priority Q_i. The α = 0 extreme —
/// serves premium clients first but is unfair and ignores batching
/// efficiency.
class PriorityPolicy final : public PullPolicy {
 public:
  [[nodiscard]] double score(const PullEntry& entry,
                             const PullContext&) const override {
    return entry.total_priority;
  }
  [[nodiscard]] ContextUse context_use() const noexcept override {
    return ContextUse::kEntryOnly;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "priority";
  }
};

/// RxW (Aksoy & Franklin 1999): pending requests × longest wait. A
/// popularity/fairness compromise used as an external baseline; like
/// stretch, it is priority-blind.
class RxwPolicy final : public PullPolicy {
 public:
  [[nodiscard]] double score(const PullEntry& entry,
                             const PullContext& ctx) const override {
    return entry.num_requests() * (ctx.now - entry.first_arrival);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "rxw";
  }
};

/// Longest-wait-first (LWF): total accumulated waiting time of the item's
/// pending requests. A classic on-demand broadcast heuristic that balances
/// popularity against age without a tunable knob; priority-blind.
class LwfPolicy final : public PullPolicy {
 public:
  [[nodiscard]] double score(const PullEntry& entry,
                             const PullContext& ctx) const override {
    return entry.total_wait(ctx.now);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "lwf";
  }
};

/// The paper's importance factor, Eq. 1: γ_i = α·S_i + (1−α)·Q_i.
class ImportancePolicy final : public PullPolicy {
 public:
  explicit ImportancePolicy(double alpha) : alpha_(alpha) {
    if (!(alpha >= 0.0 && alpha <= 1.0)) {  // written so NaN fails too
      throw std::invalid_argument("ImportancePolicy: alpha must be in [0,1]");
    }
  }

  [[nodiscard]] double alpha() const noexcept { return alpha_; }

  [[nodiscard]] double score(const PullEntry& entry,
                             const PullContext&) const override {
    return alpha_ * entry.stretch() + (1.0 - alpha_) * entry.total_priority;
  }
  [[nodiscard]] ContextUse context_use() const noexcept override {
    return ContextUse::kEntryOnly;
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "importance";
  }

 private:
  double alpha_;
};

/// The paper's Eq. 6 generalization: weighs both terms by the expected
/// number of copies of the item in the pull queue, E[L_pull]·p_i:
///   ϱ_i = α·E[L]p_i/L_i² + (1−α)·E[L]p_i·Q_i.
/// Reduces to Eq. 1 when E[L_pull]·p_i = 1.
class ImportanceQueueAwarePolicy final : public PullPolicy {
 public:
  static constexpr double kMinFactor = 0x1p-256;

  explicit ImportanceQueueAwarePolicy(double alpha) : alpha_(alpha) {
    if (!(alpha >= 0.0 && alpha <= 1.0)) {  // written so NaN fails too
      throw std::invalid_argument(
          "ImportanceQueueAwarePolicy: alpha must be in [0,1]");
    }
  }

  [[nodiscard]] double alpha() const noexcept { return alpha_; }

  [[nodiscard]] double score(const PullEntry& entry,
                             const PullContext& ctx) const override {
    const double expected_copies = ctx.expected_queue_len * entry.popularity;
    return alpha_ * expected_copies / (entry.length * entry.length) +
           (1.0 - alpha_) * expected_copies * entry.total_priority;
  }
  /// The score is E[L_pull] times its value at E[L_pull] = 1 — unless a
  /// subnormal α would cost α·p_i its relative accuracy.
  [[nodiscard]] ContextUse context_use() const noexcept override {
    return metrics::exactly_zero(alpha_) || alpha_ >= kMinFactor
               ? ContextUse::kScaledByQueueLen
               : ContextUse::kFull;
  }
  /// Both terms are non-negative and every intermediate of score() stays
  /// normal for p_i in {0} ∪ [2^-256, 1], L_i in [2^-256, 2^256] and
  /// Q_i >= 0 — the domain of the band-selection error bound.
  [[nodiscard]] double scaled_key(const PullEntry& entry) const override {
    const double p = entry.popularity;
    const double len = entry.length;
    const bool in_domain =
        (metrics::exactly_zero(p) || (p >= kMinFactor && p <= 1.0)) &&
        len >= kMinFactor && len <= 1.0 / kMinFactor &&
        entry.total_priority >= 0.0;
    return in_domain ? score(entry, PullContext{})
                     : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "importance-q";
  }

 private:
  double alpha_;
};

}  // namespace pushpull::sched
