#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "catalog/catalog.hpp"
#include "core/bandwidth_manager.hpp"
#include "core/config.hpp"
#include "core/pull_queue.hpp"
#include "core/result.hpp"
#include "des/id_map.hpp"
#include "des/simulator.hpp"
#include "fault/channel.hpp"
#include "metrics/class_stats.hpp"
#include "metrics/welford.hpp"
#include "obs/observer.hpp"
#include "resilience/overload.hpp"
#include "rng/xoshiro256ss.hpp"
#include "sched/pull/policy.hpp"
#include "sched/push/push_scheduler.hpp"
#include "workload/popularity_estimator.hpp"
#include "workload/population.hpp"
#include "workload/trace.hpp"

namespace pushpull::core {

/// Bit marking a hedged duplicate's request id (HybridConfig::hedge_after).
/// Duplicates live only inside the pull queue: they boost their item
/// entry's aggregate importance, are absorbed silently at delivery, and are
/// never counted as arrivals, settled, shed or retried.
inline constexpr workload::RequestId kHedgeIdBit = 1ull << 63;

/// What a driver of HybridServer hears while a run happens — the serve
/// layer journals and samples queue depth through it. Hooks fire in
/// dispatch order at the current simulated instant; the engine never reads
/// anything back, so a listener cannot change a run.
class RunListener {
 public:
  virtual ~RunListener() = default;

  RunListener() = default;
  RunListener(const RunListener&) = delete;
  RunListener& operator=(const RunListener&) = delete;

  /// A request entered the server.
  virtual void on_arrival(const workload::Request& /*request*/) {}
  /// A transmission started at `now`; `audience` requests ride it (a pull
  /// entry's count includes its hedged duplicates).
  virtual void on_transmission(bool /*push*/, double /*now*/,
                               catalog::ItemId /*item*/,
                               std::size_t /*audience*/) {}
  /// The overload ladder moved.
  virtual void on_ladder(double /*now*/, resilience::OverloadLevel /*from*/,
                         resilience::OverloadLevel /*to*/) {}
  /// drain() engaged; `skipped` expected arrivals will never be injected.
  virtual void on_drain(double /*now*/, std::uint64_t /*skipped*/) {}
  /// The pull-queue length, sampled wherever the E[L_pull] integral is
  /// updated.
  virtual void on_queue_len(std::size_t /*len*/) {}
};

/// The paper's hybrid scheduling server (Fig. 1 pseudo-code), simulated
/// with discrete events.
///
/// Behavior per the paper, §3:
///  * items [0, K) are broadcast cyclically by the push scheduler; client
///    requests for them are ignored by the queue (the client simply waits
///    for the item to come around) but tracked here to measure their delay;
///  * requests for items [K, D) enter the pull queue, aggregated per item
///    with arrival time, request count R_i and summed client priority Q_i;
///  * after every push transmission, if the pull queue is non-empty the
///    entry with the maximum importance factor is extracted and transmitted;
///  * a pull transmission first draws a Poisson bandwidth demand and asks
///    the service class's bandwidth pool to admit it; on rejection the item
///    and all its pending requests are dropped (blocking);
///  * delivery is at transmission *end*, and only requests that arrived
///    before the transmission started are satisfied by it.
///
/// On top of the paper's model the server carries an optional
/// fault-injection layer (config.fault):
///  * every transmission end samples a Gilbert–Elliott burst-error channel;
///    a corrupted *push* item is simply caught on its next broadcast cycle,
///    while a corrupted *pull* item triggers a client re-request after an
///    exponential backoff, bounded by `fault.retry.max_retries` attempts
///    (then the request counts as lost);
///  * a bounded pull queue (`fault.queue_capacity`) sheds requests under
///    overload, by drop-tail or by evicting the lowest-priority client.
///
/// And an optional resilience layer (config.resilience):
///  * a seeded crash schedule kills the server at simulated instants; an
///    in-flight transmission is voided, the pull queue's server-side state
///    is wiped (cold) or restored from the latest periodic snapshot (warm),
///    and the clients whose work was lost re-request in a storm after the
///    recovery plus a per-client timeout/jitter. Clients parked for push
///    items simply keep waiting (their state is client-side); a cold
///    restart additionally forgets the broadcast-cycle position;
///  * an overload degradation ladder watches pull-queue occupancy and the
///    per-class blocking EWMA and escalates normal → shed-low-priority →
///    widen-push → admission-control → brownout with hysteresis, logging
///    every move. Widening temporarily grows the push cutoff, admission
///    control rejects the least important class(es) at the uplink.
///
/// Three axes make the engine every server configuration (DESIGN §9):
///  * the cutoff controller — static K, or (config.reoptimize_interval > 0)
///    the periodic re-optimizer: a popularity estimate ranks the items, the
///    analytic model re-picks K, and the push set becomes the top K of the
///    ranking, pending requests migrating across the new boundary;
///  * the arrival source — a trace streamed through the kernel, or
///    run(ClosedLoop): C clients thinking, requesting and waiting, each
///    settled request sending its client back to thinking;
///  * the channel layout — the paper's single alternating downlink, or
///    (config.pull_channels = m > 0) a dedicated broadcast channel plus m
///    pull channels, each with its own on-air record.
///
/// One engine, two drivers (DESIGN §9). run(trace) is the batch DES: the
/// trace streams through des::Simulator until every request has settled.
/// The serve layer drives the same engine as a live server: accelerated,
/// run(plan, drain_at, listener) streams its load plan in place and may
/// drain mid-run; realtime, start_realtime() then advance_to(t) as the wall
/// clock passes and arrive() for each observed arrival. The live failure
/// model rides on the patience and fault layers: per-class patience scales
/// and a patience spike (config.patience_*), hedged duplicates
/// (config.hedge_after) and the graceful drain().
///
/// The server is deterministic given (catalog, population, config, trace);
/// the fault channel, crash schedule and storm jitter each draw from their
/// own named stream, so enabling any of them never perturbs the
/// bandwidth-demand or patience draws — and with the whole resilience layer
/// disabled the output is bit-identical to builds that predate it.
class HybridServer {
 public:
  /// Throws std::invalid_argument naming the field on an unusable config:
  /// cutoff beyond the catalog, warmup outside [0, 1), a non-finite alpha,
  /// bandwidth demand, patience or total bandwidth, bad patience scales or
  /// spike, hedging combined with crashes, a negative or non-finite
  /// re-optimization interval, or (re-optimizing) a non-positive or
  /// non-finite estimator half-life.
  HybridServer(const catalog::Catalog& cat,
               const workload::ClientPopulation& pop, HybridConfig config);

  /// Simulates the full trace and runs until every request is delivered or
  /// blocked, then reports per-class statistics.
  [[nodiscard]] SimResult run(const workload::Trace& trace);

  /// Simulates a closed loop until `loop.horizon`. Clients take classes by
  /// the population's cumulative shares (deterministic) and draw think
  /// times and items from the "think" and "items" streams of config().seed.
  /// Throws std::invalid_argument on no clients or a non-positive or
  /// non-finite think rate or horizon.
  [[nodiscard]] SimResult run(const ClosedLoop& loop);

  /// Accelerated drive over `plan` (sorted by arrival), streamed through
  /// the kernel in place — it must outlive the call. With `drain_at` > 0
  /// every event strictly before that instant runs first, then drain()
  /// engages unless the run has already settled. `listener` may be null.
  [[nodiscard]] SimResult run(std::span<const workload::Request> plan,
                              double drain_at, RunListener* listener);

  /// Realtime drive: begins a run of `expected` requests that arrive()
  /// hands in one at a time; finish() ends it.
  void start_realtime(std::uint64_t expected, RunListener* listener);
  /// Dispatches, in (time, id) order, every pending event due at or before
  /// `t`, stopping once the run is done().
  void advance_to(des::SimTime t);
  /// A realtime arrival observed at `observed`: events due by then fire
  /// first. Pacer threads can post out of order, so an arrival observed
  /// before the engine's clock is stamped with the clock instead.
  void arrive(workload::Request request, double observed);
  /// Graceful drain at `at`: admission stops (arrivals not yet injected are
  /// skipped), broadcasts stop, and the pull side flushes back to back.
  /// Parked push waiters stay unsettled (SimResult::unsettled).
  void drain(double at);
  /// True once every injected request has settled or, while draining, once
  /// no pull request, pending re-request (retry backoff or crash storm) or
  /// transmission on any channel remains.
  [[nodiscard]] bool done() const noexcept;
  /// Earliest pending event time; des::Simulator::kForever when none.
  [[nodiscard]] des::SimTime next_event_time() const {
    return sim_.next_time();
  }
  /// Ends a driven run and reports it.
  [[nodiscard]] SimResult finish();

  /// Routes the engine's trace events into `tracer` while config().obs is
  /// off — how a driver that owns the observer (the serve layer) sees them.
  /// A default-constructed Tracer removes it.
  void set_tracer(obs::Tracer tracer) noexcept { external_trace_ = tracer; }

  [[nodiscard]] const HybridConfig& config() const noexcept { return config_; }

  /// Observability report of the last run(): trace window, counters and
  /// histograms. Empty (enabled=false) unless config().obs.enabled. Valid
  /// until the next run() resets the observer.
  [[nodiscard]] obs::ObsReport obs_report() const {
    return obs_ ? obs_->report() : obs::ObsReport{};
  }

 private:
  /// Resets run-scoped state and schedules the run's opening events: the
  /// crash schedule, the ladder, the arrival source (`plan`'s arrivals, or
  /// each client of `loop` thinking), the first transmission and the first
  /// re-optimization. `expected` requests must settle before the run is
  /// done.
  void begin(std::span<const workload::Request> plan, std::uint64_t expected,
             RunListener* listener, const ClosedLoop* loop = nullptr);
  void on_arrival(const workload::Request& request);
  /// Starts the next transmission on `channel`, or leaves it idle. The
  /// shared channel alternates one pull after every push; a dedicated
  /// broadcast channel pushes back to back, a pull channel pulls.
  void serve_next(std::size_t channel, bool just_did_push);
  /// Wakes the idle channel(s) that carry pull traffic.
  void wake_pull();
  void start_push(double now);
  void start_pull(std::size_t channel, double now);
  /// Transmission ends: deliver (or, corrupted, recover) the on-air
  /// record's passengers, then serve the next slot. An end whose `epoch`
  /// is stale was voided by a crash and does nothing.
  void end_push(std::uint64_t epoch);
  void end_pull(std::size_t channel, std::uint64_t epoch);
  void deliver(const workload::Request& request, bool via_push);
  /// Counts `request` settled; a closed-loop client then thinks again.
  void settle_one(const workload::Request& request);
  /// Closed loop: `client` thinks, then issues its next request.
  void think(std::size_t client);
  void issue(std::size_t client);
  void note_queue_len();
  void arm_patience(const workload::Request& request);
  void disarm_patience(workload::RequestId request);
  void on_patience_expired(const workload::Request& request);

  /// Samples the fault channel for one finished transmission; always false
  /// when fault injection is disabled (and consumes no randomness).
  [[nodiscard]] bool transmission_corrupted();
  /// Handles a corrupted pull transmission: schedules bounded-backoff
  /// re-requests and settles requests that exhausted their retries.
  void on_pull_corrupted(const sched::PullEntry& entry);
  /// Re-enters a request into the pull queue after its backoff, waking the
  /// server if it went idle in the meantime.
  void requeue_pull(const workload::Request& request);
  /// Admission control of the bounded pull queue. Returns true when
  /// `request` may enter (possibly after evicting a lower-priority victim);
  /// false when it was shed — in that case the request is already settled.
  [[nodiscard]] bool admit_pull(const workload::Request& request);
  /// Settles a request removed by admission control.
  void shed_request(const workload::Request& request);

  // --- hedging ------------------------------------------------------------

  [[nodiscard]] bool hedging() const noexcept {
    return config_.hedge_after > 0.0;
  }
  [[nodiscard]] bool is_hedge_dup(const workload::Request& r) const noexcept {
    return hedging() && (r.id & kHedgeIdBit) != 0;
  }
  /// Arms the hedge timer of a request just admitted to the pull queue.
  void arm_hedge(const workload::Request& request);
  /// Cancels the hedge timer of a request leaving the pull queue.
  void disarm_hedge(workload::RequestId request);
  /// Posts the duplicate — unless the queue is full: the duplicate is an
  /// optimization, not admitted work, so it never sheds anyone.
  void on_hedge_fire(const workload::Request& request);
  /// Drops the duplicate of a primary leaving the pull queue, if any.
  void remove_hedge_dup(const workload::Request& primary);

  // --- resilience layer ---------------------------------------------------

  /// Push cutoff currently in force: the controller's K plus the ladder's
  /// widen-push boost, clamped to the catalog.
  [[nodiscard]] std::size_t effective_cutoff() const noexcept;
  /// True when `item` is in the push set (its rank is below the cut).
  [[nodiscard]] bool pushed(catalog::ItemId item) const noexcept {
    return rank_of_[item] < effective_cutoff();
  }
  /// Pull-queue capacity in force: the hard fault cap wins, else the
  /// ladder's soft cap at shed-low-priority and above (0 = unbounded).
  [[nodiscard]] std::size_t effective_queue_capacity() const noexcept;
  /// Shed policy in force (the ladder forces drop-lowest-priority at
  /// shed-low-priority and above).
  [[nodiscard]] fault::ShedPolicy effective_shed_policy() const noexcept;
  /// True when the ladder's admission control refuses this class at the
  /// uplink. Never starves a single-class population; brownout admits only
  /// the most important class, admission control rejects the least
  /// important.
  [[nodiscard]] bool uplink_rejected(workload::ClassId cls) const noexcept;

  /// The server dies: void the in-flight transmission, wipe (cold) or
  /// restore (warm) the queue, storm the lost clients, schedule recovery.
  void on_crash();
  void on_recovered();
  /// One client whose pending work a crash wiped: re-requests at
  /// `recovery + rerequest_timeout + U(0, storm_spread)`.
  void storm_rerequest(const workload::Request& request, double crash_time,
                       double recovery_time);
  /// Periodic warm-recovery snapshot of the pull queue (versioned codec).
  void take_snapshot();
  /// Periodic ladder evaluation; applies level actions on transitions.
  void evaluate_overload();
  void apply_overload_level(resilience::OverloadLevel level);
  /// Applies a new widen-push boost through move_push_set when it moves
  /// the cut.
  void apply_cutoff_boost(std::size_t boost);
  /// Periodic cutoff re-optimization over the popularity estimate.
  void reoptimize();
  /// Moves the push set to the top `cutoff + boost` items of `ranking`
  /// (empty: the current ranking), rebuilds the push program and migrates
  /// the items whose membership changed: newly pushed items first, in the
  /// new rank order, their queued requests becoming push waiters; then
  /// newly pulled items by ascending id, their waiters re-entering the
  /// pull queue through requeue_pull. Wakes an idle broadcast.
  void move_push_set(std::size_t cutoff, std::size_t boost,
                     std::vector<catalog::ItemId> ranking);

  [[nodiscard]] bool measured(const workload::Request& request) const noexcept {
    return request.arrival >= warmup_time_;
  }

  const catalog::Catalog* catalog_;
  const workload::ClientPopulation* population_;
  HybridConfig config_;

  des::Simulator sim_;
  PullQueue pull_queue_;
  std::unique_ptr<sched::PushScheduler> push_sched_;
  std::unique_ptr<sched::PullPolicy> pull_policy_;
  BandwidthManager bandwidth_;
  rng::Xoshiro256ss demand_eng_;
  rng::Xoshiro256ss patience_eng_;
  // Present iff config_.fault.enabled; samples one state transition and one
  // corruption draw per downlink transmission.
  std::optional<fault::GilbertElliottChannel> channel_;
  // True when the patience spike can fire (factor != 1, duration > 0).
  bool patience_spike_ = false;

  std::vector<std::vector<workload::Request>> push_waiters_;
  // The push set is rank positions [0, effective_cutoff()) of ranking_:
  // the catalog's own order unless the re-optimizer re-ranked it. rank_of_
  // is the inverse (item -> position); the push program runs over
  // positions and maps each through ranking_.
  std::vector<catalog::ItemId> ranking_;
  std::vector<catalog::ItemId> rank_of_;
  // Pending abandonment timers, keyed by request id; a timer is disarmed
  // the moment its request is committed to a transmission (or dropped).
  des::IdMap<des::EventId> patience_;
  // Re-requests already issued per pull request, keyed by request id; an
  // entry exists only while the request has suffered >= 1 corruption.
  des::IdMap<std::uint32_t> retry_count_;
  std::unique_ptr<metrics::ClassCollector> collector_;

  // Run-scoped state.
  // The controller's K: config_.cutoff unless re-optimized this run.
  std::size_t cutoff_ = 0;
  des::SimTime warmup_time_ = 0.0;
  std::uint64_t to_settle_ = 0;
  std::uint64_t settled_ = 0;
  std::uint64_t arrivals_ = 0;       // requests injected so far
  des::SimTime end_time_ = 0.0;      // instant the last request settled
  // Re-requests scheduled but not yet landed: corrupted pulls waiting out a
  // backoff, and clients of a crash storm.
  std::uint64_t rerequests_pending_ = 0;
  bool draining_ = false;
  RunListener* listener_ = nullptr;
  std::uint64_t push_transmissions_ = 0;
  std::uint64_t pull_transmissions_ = 0;
  std::uint64_t blocked_transmissions_ = 0;
  std::uint64_t corrupted_push_transmissions_ = 0;
  std::uint64_t corrupted_pull_transmissions_ = 0;
  // Time-weighted pull-queue-length integral (for E[L_pull]).
  double queue_len_area_ = 0.0;
  des::SimTime queue_len_last_t_ = 0.0;
  std::size_t max_queue_len_ = 0;

  // --- hedging state ------------------------------------------------------
  // Pending hedge timers per primary, and the primaries whose duplicate is
  // queued (a set: the value is unused); both stay empty unless hedging().
  des::IdMap<des::EventId> hedge_timer_;
  des::IdMap<bool> hedged_;
  std::uint64_t hedges_posted_ = 0;
  std::uint64_t hedges_absorbed_ = 0;

  // --- resilience state ---------------------------------------------------
  // True while a non-empty crash schedule is in force this run; the storm
  // engine is derived only then, so the fault-free path stays untouched.
  bool crash_active_ = false;
  bool down_ = false;
  // Bumped by every crash; a transmission-end event whose captured epoch is
  // stale was voided by a crash and must not deliver.
  std::uint64_t server_epoch_ = 0;
  // A channel's transmission on air: its end event reads it and a crash
  // unwinds it. The buffers are kept across transmissions, so a warm
  // server starts a push without allocating.
  struct OnAir {
    enum class Kind { kNone, kPush, kPull };
    Kind kind = Kind::kNone;
    catalog::ItemId item = 0;                 // push: the broadcast item
    std::vector<workload::Request> catching;  // push: the committed waiters
    sched::PullEntry entry;                   // pull: the extracted entry
    workload::ClassId cls = 0;                // pull: the class charged
    double demand = 0.0;                      // pull: the bandwidth grant
  };
  // One downlink channel: at most one transmission on air, whose airtime
  // is charged when it starts.
  struct Channel {
    OnAir on_air;
    bool busy = false;
    double airtime = 0.0;
  };
  // [0] is the shared channel or, with pull channels, the broadcast
  // channel; [1..m] are the pull channels.
  std::vector<Channel> channels_;
  [[nodiscard]] bool dedicated() const noexcept {
    return config_.pull_channels > 0;
  }
  // Pull work that arrived (or matured from a retry backoff) while the
  // server was dark; drained at recovery.
  std::vector<workload::Request> downtime_parked_;
  // Storm jitter; derived iff crash_active_ (own named stream).
  std::optional<rng::Xoshiro256ss> storm_eng_;
  std::uint64_t snapshot_fingerprint_ = 0;
  // Latest encoded warm-recovery snapshot ("" = none taken yet).
  std::string latest_snapshot_;
  std::uint64_t crash_count_ = 0;
  double total_downtime_ = 0.0;
  std::uint64_t storm_rerequests_ = 0;
  std::uint64_t largest_storm_ = 0;
  metrics::Welford recovery_latency_;

  // --- observability ------------------------------------------------------
  // Present iff config_.obs.enabled for the current run. Strictly
  // write-only from the simulation's perspective: nothing below ever reads
  // observer state, so traced and untraced runs are bit-identical.
  std::unique_ptr<obs::RunObserver> obs_;
  // The observer's tracer, else external_trace_ (inert unless a driver set
  // one); every emission then costs one branch.
  obs::Tracer trace_;
  obs::Tracer external_trace_;
  // des kernel counter baselines at run start (the kernel keeps lifetime
  // totals; the report wants this run's deltas).
  std::uint64_t des_scheduled_base_ = 0;
  std::uint64_t des_dispatched_base_ = 0;
  std::uint64_t des_cancelled_base_ = 0;

  resilience::OverloadController overload_;
  // Per-class blocking EWMA (ladder input); updated per pull service
  // attempt, only while the ladder is enabled.
  std::vector<double> blocking_ewma_;
  // Extra push-cutoff items granted by widen-push (0 at normal).
  std::size_t cutoff_boost_ = 0;

  // --- cutoff controller --------------------------------------------------
  [[nodiscard]] bool reoptimizing() const noexcept {
    return config_.reoptimize_interval > 0.0;
  }
  // Present iff reoptimizing(); fed every arrival.
  std::optional<workload::PopularityEstimator> estimator_;
  std::uint64_t reoptimizations_ = 0;
  std::vector<std::pair<des::SimTime, std::size_t>> cutoff_history_;

  // --- closed loop --------------------------------------------------------
  // The closed loop of the current run; empty for a trace.
  std::optional<ClosedLoop> loop_;
  rng::Xoshiro256ss think_eng_;
  rng::Xoshiro256ss item_eng_;
  std::vector<workload::ClassId> client_class_;
  // owner_[request id] = issuing client; a closed loop's ids are dense.
  std::vector<std::size_t> owner_;
};

}  // namespace pushpull::core
