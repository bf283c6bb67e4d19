#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "des/event.hpp"
#include "metrics/class_stats.hpp"
#include "metrics/welford.hpp"
#include "resilience/overload.hpp"
#include "workload/population.hpp"

namespace pushpull::core {

/// Outcome of one hybrid-server run.
struct SimResult {
  std::vector<metrics::ClassStats> per_class;
  des::SimTime end_time = 0.0;
  std::uint64_t push_transmissions = 0;
  std::uint64_t pull_transmissions = 0;
  std::uint64_t blocked_transmissions = 0;
  /// Downlink transmissions voided by the fault layer's burst-error
  /// channel, split by phase (both zero on a perfect channel).
  std::uint64_t corrupted_push_transmissions = 0;
  std::uint64_t corrupted_pull_transmissions = 0;
  /// Time-weighted mean number of pending pull requests (the simulated
  /// counterpart of the model's E[L_pull]).
  double mean_pull_queue_len = 0.0;
  /// Largest instantaneous pull-queue length observed (for the queue-cap
  /// invariant).
  std::size_t max_pull_queue_len = 0;

  // Resilience layer (all zero/empty with crashes and ladder disabled).
  std::uint64_t crashes = 0;
  /// Total virtual time the server spent dark.
  double total_downtime = 0.0;
  /// Re-requests issued by clients whose pending work a crash wiped out.
  std::uint64_t storm_rerequests = 0;
  /// Largest single-crash re-request storm.
  std::uint64_t largest_storm = 0;
  /// Per-request recovery latency: crash instant → the re-request landing
  /// back in the pull queue.
  metrics::Welford recovery_latency;
  /// Every degradation-ladder move, in event order.
  std::vector<resilience::OverloadTransition> overload_transitions;
  /// Highest ladder level reached during the run.
  resilience::OverloadLevel max_overload_level =
      resilience::OverloadLevel::kNormal;
  /// Out-of-order event dispatches observed by the kernel (the event-time
  /// monotonicity invariant; always 0 for a completed run).
  std::uint64_t event_order_violations = 0;

  /// Hedged duplicates posted, and those absorbed by their entry's
  /// delivery (both zero unless HybridConfig::hedge_after > 0).
  std::uint64_t hedges_posted = 0;
  std::uint64_t hedges_absorbed = 0;
  /// Injected requests still waiting when the run ended, counted from the
  /// server's structures: zero for a completed run, the parked push waiters
  /// after HybridServer::drain.
  std::uint64_t unsettled = 0;

  /// Cutoff re-optimizations run, and the controller's K after each one,
  /// starting with the configured K at time 0 (both empty unless
  /// HybridConfig::reoptimize_interval > 0).
  std::uint64_t reoptimizations = 0;
  std::vector<std::pair<des::SimTime, std::size_t>> cutoff_history;
  /// Busy airtime over end_time, per channel: [0] is the shared channel
  /// or, with pull channels, the broadcast channel; [1..m] the pull
  /// channels. Airtime is charged when a transmission starts, so a
  /// broadcast still in flight at the end can lift a figure above 1.
  std::vector<double> channel_utilization;
  /// Closed-loop runs: deliveries per time unit over the measured window
  /// (the horizon less its warm-up); 0 for a trace.
  double throughput = 0.0;

  /// Transmissions that actually carried data to clients, corrupted or not
  /// (the server's *throughput* in airtime slots).
  [[nodiscard]] std::uint64_t total_transmissions() const noexcept {
    return push_transmissions + pull_transmissions;
  }

  /// Fraction of transmissions the channel voided — airtime the difference
  /// between item throughput and user-perceived goodput.
  [[nodiscard]] double corruption_ratio() const noexcept {
    const std::uint64_t total = total_transmissions();
    return total ? static_cast<double>(corrupted_push_transmissions +
                                       corrupted_pull_transmissions) /
                       static_cast<double>(total)
                 : 0.0;
  }

  [[nodiscard]] metrics::ClassStats overall() const {
    metrics::ClassStats total;
    for (const auto& s : per_class) total.merge_counters(s);
    return total;
  }

  [[nodiscard]] double mean_wait(workload::ClassId cls) const {
    return per_class[cls].wait.mean();
  }

  /// The paper's prioritized cost of class j: q_j × (expected delay of
  /// class j).
  [[nodiscard]] double prioritized_cost(
      const workload::ClientPopulation& pop, workload::ClassId cls) const {
    return pop.priority(cls) * per_class[cls].wait.mean();
  }

  /// Total prioritized cost Σ_j q_j·E[W_j] — the objective the cutoff
  /// optimizer minimizes in Figs. 5–6.
  [[nodiscard]] double total_prioritized_cost(
      const workload::ClientPopulation& pop) const {
    double total = 0.0;
    for (workload::ClassId c = 0; c < per_class.size(); ++c) {
      total += prioritized_cost(pop, c);
    }
    return total;
  }
};

}  // namespace pushpull::core
