#pragma once

#include <cstdint>
#include <vector>

#include "metrics/p2_quantile.hpp"
#include "metrics/welford.hpp"

namespace pushpull::metrics {

/// Alias-identical to workload's ClassId. metrics sits below workload in
/// the layer DAG (tools/detlint/layers.toml), so this header must not
/// include workload/; the static_assert in core/hybrid_server.cpp (which
/// sees both layers) pins the two aliases together.
using ClassId = std::uint32_t;

/// Outcome counters and waiting-time statistics for one service class.
/// Tail quantiles are streamed with P² estimators; note that quantiles are
/// per-class only — aggregate() pools counters and moments but cannot merge
/// quantile sketches, so the aggregate's quantiles stay empty.
///
/// The four sketches (wait_p50/p95/p99, gap_p99) are fed only by a
/// ClassCollector built with tail_quantiles on, the default. The
/// replication harnesses (exp::replicate_hybrid, exp::run_chaos) turn it
/// off: they pool means, counters and Welfords, and P² sketches cannot
/// merge, so nothing would read them. A sketch from such a run reads
/// count 0; every counter and both Welfords are the same either way.
struct ClassStats {
  Welford wait;                 // completed requests: arrival → delivery
  P2Quantile wait_p50{0.50};
  P2Quantile wait_p95{0.95};
  P2Quantile wait_p99{0.99};
  /// Inter-service gap: simulated time between consecutive deliveries of
  /// this class — the "regular service" metric. A starved class shows a
  /// large gap max even when its served requests' waits look fine. Only
  /// populated when the engine passes delivery timestamps to
  /// record_served (all DES engines do); gap.count() == served - 1 when
  /// the class was served at least twice.
  Welford gap;
  P2Quantile gap_p99{0.99};
  std::uint64_t arrived = 0;    // requests generated for this class
  std::uint64_t served = 0;     // delivered (push or pull)
  std::uint64_t served_push = 0;
  std::uint64_t served_pull = 0;
  std::uint64_t blocked = 0;    // dropped by bandwidth admission
  std::uint64_t abandoned = 0;  // impatient clients that gave up waiting
  // Fault-layer outcomes (all zero on a perfect channel / unbounded queue).
  std::uint64_t corrupted = 0;  // request-deliveries voided by channel errors
  std::uint64_t retries = 0;    // pull re-requests issued after corruption
  std::uint64_t shed = 0;       // rejected/evicted by pull-queue admission
  std::uint64_t lost = 0;       // pull requests that exhausted their retries
  // Resilience-layer outcomes (all zero with crashes and ladder disabled).
  std::uint64_t rejected = 0;   // refused at the uplink by admission control
  std::uint64_t stormed = 0;    // re-requests issued after a server crash

  [[nodiscard]] std::uint64_t outstanding() const noexcept {
    return arrived - served - blocked - abandoned - shed - lost - rejected;
  }
  [[nodiscard]] double blocking_ratio() const noexcept {
    const std::uint64_t settled = served + blocked + abandoned;
    return settled ? static_cast<double>(blocked) /
                         static_cast<double>(settled)
                   : 0.0;
  }

  /// Fraction of settled requests refused by overload admission control.
  [[nodiscard]] double rejection_ratio() const noexcept {
    const std::uint64_t settled =
        served + blocked + abandoned + shed + lost + rejected;
    return settled ? static_cast<double>(rejected) /
                         static_cast<double>(settled)
                   : 0.0;
  }

  /// Fraction of settled requests whose client gave up before delivery.
  [[nodiscard]] double abandonment_ratio() const noexcept {
    const std::uint64_t settled =
        served + blocked + abandoned + shed + lost + rejected;
    return settled ? static_cast<double>(abandoned) /
                         static_cast<double>(settled)
                   : 0.0;
  }

  /// Fraction of settled requests actually delivered intact — the
  /// user-perceived *goodput* as opposed to the server's transmission
  /// throughput (which also counts corrupted airtime).
  [[nodiscard]] double goodput_ratio() const noexcept {
    const std::uint64_t settled =
        served + blocked + abandoned + shed + lost + rejected;
    return settled ? static_cast<double>(served) /
                         static_cast<double>(settled)
                   : 0.0;
  }

  /// Fraction of settled requests removed by the fault layer (shed by
  /// admission control or lost after exhausting retries).
  [[nodiscard]] double loss_ratio() const noexcept {
    const std::uint64_t settled =
        served + blocked + abandoned + shed + lost + rejected;
    return settled ? static_cast<double>(shed + lost) /
                         static_cast<double>(settled)
                   : 0.0;
  }

  /// Pools counters and waiting-time moments from `other` (quantile
  /// sketches cannot merge and are left untouched).
  void merge_counters(const ClassStats& other) noexcept {
    wait.merge(other.wait);
    gap.merge(other.gap);
    arrived += other.arrived;
    served += other.served;
    served_push += other.served_push;
    served_pull += other.served_pull;
    blocked += other.blocked;
    abandoned += other.abandoned;
    corrupted += other.corrupted;
    retries += other.retries;
    shed += other.shed;
    lost += other.lost;
    rejected += other.rejected;
    stormed += other.stormed;
  }
};

/// Per-class collector indexed by ClassId, plus an aggregate view.
class ClassCollector {
 public:
  /// With `tail_quantiles` off, record_served skips the four P² sketches
  /// (they stay at count 0) and feeds everything else as usual.
  explicit ClassCollector(std::size_t num_classes, bool tail_quantiles = true)
      : stats_(num_classes),
        last_service_(num_classes, -1.0),
        tail_quantiles_(tail_quantiles) {}

  [[nodiscard]] std::size_t num_classes() const noexcept {
    return stats_.size();
  }
  [[nodiscard]] ClassStats& at(ClassId cls) noexcept {
    return stats_[cls];
  }
  [[nodiscard]] const ClassStats& at(ClassId cls) const noexcept {
    return stats_[cls];
  }
  [[nodiscard]] const std::vector<ClassStats>& all() const noexcept {
    return stats_;
  }

  void record_arrival(ClassId cls) noexcept { ++stats_[cls].arrived; }

  /// Records a delivery. `now` is the delivery's simulated timestamp; when
  /// non-negative, consecutive deliveries of the same class also feed the
  /// inter-service-gap statistics (the default of -1.0 keeps legacy
  /// three-argument callers compiling and gap-free).
  void record_served(ClassId cls, double wait_time, bool via_push,
                     double now = -1.0) {
    auto& s = stats_[cls];
    ++s.served;
    (via_push ? s.served_push : s.served_pull) += 1;
    s.wait.add(wait_time);
    if (tail_quantiles_) {
      s.wait_p50.add(wait_time);
      s.wait_p95.add(wait_time);
      s.wait_p99.add(wait_time);
    }
    if (now >= 0.0) {
      if (last_service_[cls] >= 0.0) {
        const double gap = now - last_service_[cls];
        s.gap.add(gap);
        if (tail_quantiles_) s.gap_p99.add(gap);
      }
      last_service_[cls] = now;
    }
  }

  void record_blocked(ClassId cls) noexcept {
    ++stats_[cls].blocked;
  }

  void record_abandoned(ClassId cls) noexcept {
    ++stats_[cls].abandoned;
  }

  void record_corrupted(ClassId cls) noexcept {
    ++stats_[cls].corrupted;
  }

  void record_retry(ClassId cls) noexcept { ++stats_[cls].retries; }

  void record_shed(ClassId cls) noexcept { ++stats_[cls].shed; }

  void record_lost(ClassId cls) noexcept { ++stats_[cls].lost; }

  void record_rejected(ClassId cls) noexcept {
    ++stats_[cls].rejected;
  }

  void record_stormed(ClassId cls) noexcept {
    ++stats_[cls].stormed;
  }

  /// All classes merged (waiting-time stats pooled over every request).
  [[nodiscard]] ClassStats aggregate() const noexcept {
    ClassStats total;
    for (const auto& s : stats_) total.merge_counters(s);
    return total;
  }

 private:
  std::vector<ClassStats> stats_;
  /// Timestamp of the last recorded delivery per class (-1 = none yet).
  std::vector<double> last_service_;
  bool tail_quantiles_;
};

}  // namespace pushpull::metrics
