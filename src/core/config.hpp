#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/fault_config.hpp"
#include "obs/config.hpp"
#include "resilience/resilience_config.hpp"
#include "sched/pull/policy.hpp"
#include "sched/push/push_scheduler.hpp"

namespace pushpull::core {

/// Configuration of one hybrid-server run. Defaults are the paper's
/// simulation assumptions (§5.1) with the unconstrained-bandwidth channel
/// used in the delay experiments.
struct HybridConfig {
  /// Cutoff point K: items [0, K) are pushed, [K, D) pulled.
  std::size_t cutoff = 0;

  /// Channel layout. 0 is the paper's single downlink, alternating one
  /// pull opportunity after every push. m >= 1 dedicates a broadcast
  /// channel that cycles the push program back to back and adds m pull
  /// channels, each transmitting the most important entry the moment it
  /// frees up (the multi-channel broadcast setting of Kenyon, Schabanel
  /// and Young's data-broadcast PTAS).
  std::size_t pull_channels = 0;

  /// Cutoff controller. 0 keeps the push set at the top `cutoff` items of
  /// the catalog's rank order. > 0 re-optimizes every
  /// `reoptimize_interval` time units (§3, "periodically the algorithm is
  /// executed for different cutoff-points"): an online popularity estimate
  /// ranks the items, the analytic access-time model re-picks K against
  /// that ranking and the measured arrival rate, and the push set becomes
  /// the top K of the ranking.
  double reoptimize_interval = 0.0;

  /// Half-life, in virtual time, of the re-optimizer's popularity estimate.
  double estimator_half_life = 300.0;

  /// Importance-factor weight α in Eq. 1 / Eq. 6 (ignored by other pull
  /// policies).
  double alpha = 0.5;

  sched::PullPolicyKind pull_policy = sched::PullPolicyKind::kImportance;
  sched::PushPolicyKind push_policy = sched::PushPolicyKind::kFlat;

  /// Starvation guard: when > 0 the pull policy is wrapped in an aging
  /// decorator adding `aging_rate · (now − first arrival)` to every score,
  /// bounding how long any entry can be overtaken (see sched::AgingPolicy).
  double aging_rate = 0.0;

  /// Total downlink bandwidth partitioned among classes; <= 0 models an
  /// unconstrained channel (no blocking).
  double total_bandwidth = 0.0;

  /// Per-class bandwidth fractions; empty means an equal split.
  std::vector<double> bandwidth_fractions;

  /// Mean of the Poisson bandwidth demand of one pull transmission.
  double mean_bandwidth_demand = 1.0;

  /// Mean of a client's exponentially distributed patience: a request not
  /// delivered within its patience is abandoned (dropped). <= 0 disables
  /// impatience (clients wait forever), which is the paper's base setting.
  double mean_patience = 0.0;

  /// Per-class multipliers on each patience draw; empty = all 1. Applied
  /// after the draw, so the patience stream is consumed identically.
  std::vector<double> patience_scale;

  /// Patience-tightening spike: draws armed inside [patience_spike_start,
  /// patience_spike_start + patience_spike_duration) are also multiplied by
  /// patience_spike_factor. A factor of 1 or a zero duration disables it.
  double patience_spike_factor = 1.0;
  double patience_spike_start = 0.0;
  double patience_spike_duration = 0.0;

  /// Hedged re-request: a pull request still queued this long after
  /// admission posts one synthetic duplicate (kHedgeIdBit) into its item's
  /// entry, raising the entry's aggregate importance. <= 0 disables.
  double hedge_after = 0.0;

  /// Seed for the server's own randomness (bandwidth demand, patience and
  /// fault-channel draws).
  std::uint64_t seed = 1;

  /// Fault-injection layer: unreliable downlink, retry recovery and
  /// pull-queue overload shedding. The default is the paper's perfect
  /// channel and is bit-invisible in simulation output.
  fault::FaultConfig fault;

  /// Robustness layer: seeded server crash/recovery plus the overload
  /// degradation ladder. Default-inert — with crashes disabled and the
  /// ladder off, no events are scheduled and no RNG streams are derived, so
  /// output is bit-identical to builds without the layer.
  resilience::ResilienceConfig resilience;

  /// Fraction of each run treated as warm-up: requests arriving before this
  /// fraction of the trace span (of the horizon, for a closed loop) are
  /// simulated but excluded from statistics.
  double warmup_fraction = 0.0;

  /// Feeds the per-class P² tail sketches (ClassStats::wait_p50/p95/p99
  /// and gap_p99) on every measured delivery. Off, those sketches read
  /// count 0 and every other output is bit-identical. exp::replicate_hybrid
  /// and exp::run_chaos turn it off in each replication: they pool means,
  /// counters and Welfords, and P² sketches cannot merge, so nothing reads
  /// them. Left out of replication fingerprints for that reason.
  bool tail_quantiles = true;

  /// Observability layer (tracing, counters, histograms). Default-off and
  /// bit-invisible: observation is write-only from the simulation's
  /// perspective, so enabling it never changes a single output number —
  /// which is also why it is excluded from replication fingerprints.
  obs::ObsConfig obs;
};

/// Closed-loop arrival source (HybridServer::run(const ClosedLoop&)): a
/// finite population of `clients` — the paper's C of §4.1 — each thinking
/// for an exponential time of rate `think_rate`, then issuing one request
/// and waiting until it settles. The run stops at `horizon`.
struct ClosedLoop {
  std::size_t clients = 50;
  double think_rate = 0.05;
  double horizon = 20000.0;
};

}  // namespace pushpull::core
