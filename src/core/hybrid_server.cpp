#include "core/hybrid_server.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "core/cutoff_optimizer.hpp"
#include "metrics/float_compare.hpp"
#include "queueing/access_time.hpp"
#include "resilience/crash.hpp"
#include "resilience/snapshot.hpp"
#include "rng/exponential.hpp"
#include "rng/splitmix64.hpp"
#include "sched/pull/aging.hpp"
#include "rng/poisson.hpp"
#include "rng/stream.hpp"
#include "rng/uniform.hpp"

namespace pushpull::core {

// metrics keeps its own ClassId alias so the metrics layer never includes
// workload/ (layer DAG, tools/detlint/layers.toml); the engine sees both
// layers, so it pins them together.
static_assert(std::is_same_v<workload::ClassId, metrics::ClassId>,
              "metrics::ClassId must stay alias-identical to "
              "workload::ClassId");

namespace {

/// Step of the re-optimizer's analytic cutoff scan.
constexpr std::size_t kReoptimizeScanStep = 5;

/// Settle target of a closed loop, which ends at its horizon instead.
constexpr std::uint64_t kNeverSettles =
    std::numeric_limits<std::uint64_t>::max();

/// The class whose bandwidth pool a pull transmission draws from: the most
/// important (lowest id) class with a pending request for the item.
[[nodiscard]] workload::ClassId owning_class(
    const sched::PullEntry& entry) noexcept {
  workload::ClassId best = entry.pending.front().cls;
  for (const auto& r : entry.pending) {
    if (r.cls < best) best = r.cls;
  }
  return best;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument("HybridServer: " + what);
}

void require_finite(double value, const char* field) {
  require(std::isfinite(value), std::string(field) + " must be finite, got " +
                                    std::to_string(value));
}

}  // namespace

HybridServer::HybridServer(const catalog::Catalog& cat,
                           const workload::ClientPopulation& pop,
                           HybridConfig config)
    : catalog_(&cat),
      population_(&pop),
      config_(std::move(config)),
      demand_eng_(rng::StreamFactory(config_.seed).stream("bandwidth-demand")),
      patience_eng_(rng::StreamFactory(config_.seed).stream("patience")) {
  if (config_.cutoff > cat.size()) {
    throw std::invalid_argument("HybridServer: cutoff beyond catalog size");
  }
  if (config_.warmup_fraction < 0.0 || config_.warmup_fraction >= 1.0) {
    throw std::invalid_argument(
        "HybridServer: warmup_fraction must be in [0, 1)");
  }
  // Non-finite scheduler inputs would otherwise surface mid-run, or not at
  // all: an infinite demand mean never leaves rng::poisson, a NaN alpha
  // scores every entry NaN, a NaN patience fails schedule_at, and a NaN
  // bandwidth silently reads as unconstrained.
  require_finite(config_.alpha, "alpha");
  require_finite(config_.mean_bandwidth_demand, "mean_bandwidth_demand");
  require_finite(config_.mean_patience, "mean_patience");
  require_finite(config_.total_bandwidth, "total_bandwidth");
  require(config_.patience_scale.empty() ||
              config_.patience_scale.size() == pop.num_classes(),
          "patience_scale must be empty or carry one factor per class");
  for (const double s : config_.patience_scale) {
    require(s > 0.0 && std::isfinite(s),
            "patience_scale factors must be positive finite numbers");
  }
  require(config_.patience_spike_factor > 0.0 &&
              std::isfinite(config_.patience_spike_factor) &&
              config_.patience_spike_start >= 0.0 &&
              std::isfinite(config_.patience_spike_start) &&
              config_.patience_spike_duration >= 0.0 &&
              std::isfinite(config_.patience_spike_duration),
          "the patience spike needs a positive factor and a non-negative "
          "start and duration, all finite");
  require(config_.hedge_after >= 0.0 && std::isfinite(config_.hedge_after),
          "hedge_after must be a non-negative finite number");
  require(config_.reoptimize_interval >= 0.0 &&
              std::isfinite(config_.reoptimize_interval),
          "reoptimize_interval must be a non-negative finite number");
  require(!reoptimizing() || (config_.estimator_half_life > 0.0 &&
                              std::isfinite(config_.estimator_half_life)),
          "estimator_half_life must be a positive finite number");
  config_.fault.validate();
  config_.resilience.validate();
  // A crash wipes the pull queue and storms its requests back; duplicates
  // have no client behind them to re-request.
  require(!hedging() || !config_.resilience.crash.enabled ||
              config_.resilience.crash.rate <= 0.0,
          "hedging is not modelled across server crashes");
  patience_spike_ =
      !metrics::exactly_equal(config_.patience_spike_factor, 1.0) &&
      config_.patience_spike_duration > 0.0;
  if (config_.fault.enabled) {
    channel_.emplace(config_.fault.channel,
                     rng::StreamFactory(config_.seed).stream("fault-channel"));
  }
  overload_ = resilience::OverloadController(config_.resilience.overload);
  if (config_.cutoff > 0) {
    push_sched_ =
        sched::make_push_scheduler(config_.push_policy, cat, config_.cutoff);
  }
  pull_policy_ = sched::make_pull_policy(config_.pull_policy, config_.alpha);
  if (config_.aging_rate > 0.0) {
    pull_policy_ = std::make_unique<sched::AgingPolicy>(
        std::move(pull_policy_), config_.aging_rate);
  }
  if (config_.total_bandwidth > 0.0) {
    std::vector<double> fractions = config_.bandwidth_fractions;
    if (fractions.empty()) fractions.assign(pop.num_classes(), 1.0);
    if (fractions.size() != pop.num_classes()) {
      throw std::invalid_argument(
          "HybridServer: bandwidth fractions must match class count");
    }
    bandwidth_ = BandwidthManager(config_.total_bandwidth, std::move(fractions));
  }
  push_waiters_.resize(cat.size());
  ranking_.resize(cat.size());
  std::iota(ranking_.begin(), ranking_.end(), catalog::ItemId{0});
  rank_of_ = ranking_;
  cutoff_ = config_.cutoff;
  channels_.resize(config_.pull_channels + 1);
}

void HybridServer::note_queue_len() {
  const des::SimTime now = sim_.now();
  queue_len_area_ += static_cast<double>(pull_queue_.total_requests()) *
                     (now - queue_len_last_t_);
  queue_len_last_t_ = now;
  if (obs_) obs_->note_queue_len(pull_queue_.total_requests());
  if (listener_) listener_->on_queue_len(pull_queue_.total_requests());
}

void HybridServer::settle_one(const workload::Request& request) {
  ++settled_;
  end_time_ = sim_.now();
  if (settled_ == to_settle_) sim_.request_stop();
  if (loop_) think(owner_[request.id]);
}

void HybridServer::think(std::size_t client) {
  const double delay = rng::exponential(think_eng_, loop_->think_rate);
  sim_.schedule_in(delay, [this, client]() { issue(client); });
}

void HybridServer::issue(std::size_t client) {
  workload::Request request;
  request.id = owner_.size();
  request.item = catalog_->sample(item_eng_);
  request.cls = client_class_[client];
  request.arrival = sim_.now();
  owner_.push_back(client);
  on_arrival(request);
}

void HybridServer::arm_patience(const workload::Request& request) {
  if (config_.mean_patience <= 0.0) return;
  double patience =
      rng::exponential(patience_eng_, 1.0 / config_.mean_patience);
  // Scales and the spike multiply the draw after it is taken, so the
  // patience stream is consumed identically with or without them.
  if (!config_.patience_scale.empty()) {
    patience *= config_.patience_scale[request.cls];
  }
  const double now = sim_.now();
  if (patience_spike_ && now >= config_.patience_spike_start &&
      now < config_.patience_spike_start + config_.patience_spike_duration) {
    patience *= config_.patience_spike_factor;
  }
  const des::EventId event = sim_.schedule_in(
      patience, [this, request]() { on_patience_expired(request); });
  patience_.insert(request.id, event);
}

void HybridServer::disarm_patience(workload::RequestId request) {
  if (config_.mean_patience <= 0.0) return;
  const des::EventId* event = patience_.find(request);
  if (event == nullptr) return;
  sim_.cancel(*event);
  patience_.erase(request);
}

void HybridServer::on_patience_expired(const workload::Request& request) {
  patience_.erase(request.id);
  // The ladder's widen-push can move a request between the pull queue and
  // the push park while its timer is armed, so look in both places rather
  // than trusting the static cutoff test.
  bool removed = false;
  auto& waiters = push_waiters_[request.item];
  for (auto it = waiters.begin(); it != waiters.end(); ++it) {
    if (it->id == request.id) {
      waiters.erase(it);
      removed = true;
      break;
    }
  }
  if (!removed) {
    note_queue_len();
    removed = pull_queue_.remove_request(request.item, request.id,
                                         population_->priority(request.cls));
    if (removed) {
      disarm_hedge(request.id);
      remove_hedge_dup(request);
    }
  }
  // The timer is disarmed whenever the request is committed or dropped, so
  // an expired timer must always find its request still waiting.
  if (!removed) {
    throw std::logic_error(
        "HybridServer: patience timer fired for request " +
        std::to_string(request.id) + " (item " +
        std::to_string(request.item) +
        ") that is no longer waiting; timers must be disarmed when a "
        "request is committed to a transmission or dropped");
  }
  retry_count_.erase(request.id);
  if (obs_) ++obs_->counters.server_abandoned;
  trace_.emit<obs::Category::kQueue>(sim_.now(), "abandon", request.item,
                                     request.cls);
  if (measured(request)) collector_->record_abandoned(request.cls);
  settle_one(request);
}

bool HybridServer::transmission_corrupted() {
  if (!channel_.has_value()) return false;
  return channel_->corrupts(trace_, sim_.now(),
                            obs_ ? &obs_->counters.fault_flips : nullptr);
}

void HybridServer::shed_request(const workload::Request& request) {
  retry_count_.erase(request.id);
  if (obs_) ++obs_->counters.fault_shed;
  trace_.emit<obs::Category::kQueue>(sim_.now(), "shed", request.item,
                                     request.cls);
  if (measured(request)) collector_->record_shed(request.cls);
  settle_one(request);
}

bool HybridServer::admit_pull(const workload::Request& request) {
  const std::size_t capacity = effective_queue_capacity();
  if (capacity == 0 || pull_queue_.total_requests() < capacity) return true;
  if (effective_shed_policy() == fault::ShedPolicy::kDropTail) {
    shed_request(request);
    return false;
  }
  // Drop-lowest-priority: sacrifice the least important queued request
  // (ties prefer the youngest; an arrival no more important than the victim
  // is the one shed — see fault::LowestPriorityVictim for the exact rule).
  fault::LowestPriorityVictim<workload::Request> scan;
  for (const auto& entry : pull_queue_.entries()) {
    for (const auto& r : entry.pending) {
      if (is_hedge_dup(r)) continue;  // duplicates are not admitted work
      scan.consider(r, population_->priority(r.cls), r.id);
    }
  }
  if (scan.arrival_yields_to(population_->priority(request.cls))) {
    shed_request(request);
    return false;
  }
  const workload::Request evicted = *scan.victim();  // copy before mutation
  disarm_patience(evicted.id);
  pull_queue_.remove_request(evicted.item, evicted.id, scan.priority());
  disarm_hedge(evicted.id);
  remove_hedge_dup(evicted);
  shed_request(evicted);
  return true;
}

void HybridServer::requeue_pull(const workload::Request& request) {
  if (down_) {
    // The uplink is dark with the server; the re-request lands once the
    // server is back.
    downtime_parked_.push_back(request);
    return;
  }
  note_queue_len();
  if (admit_pull(request)) {
    pull_queue_.add(request, population_->priority(request.cls),
                    catalog_->length(request.item),
                    catalog_->probability(request.item));
    max_queue_len_ = std::max(max_queue_len_, pull_queue_.total_requests());
    trace_.emit<obs::Category::kQueue>(
        sim_.now(), "enter", request.item, request.cls,
        static_cast<double>(pull_queue_.total_requests()));
    arm_patience(request);
    arm_hedge(request);
  }
  wake_pull();
}

void HybridServer::on_pull_corrupted(const sched::PullEntry& entry) {
  for (const auto& r : entry.pending) {
    if (is_hedge_dup(r)) continue;  // the duplicate dies with the airtime
    if (measured(r)) collector_->record_corrupted(r.cls);
    const std::uint32_t attempt = ++retry_count_[r.id];
    if (attempt > config_.fault.retry.max_retries) {
      retry_count_.erase(r.id);
      if (obs_) ++obs_->counters.fault_lost;
      trace_.emit<obs::Category::kFault>(sim_.now(), "lost", r.item, attempt);
      if (measured(r)) collector_->record_lost(r.cls);
      settle_one(r);
      continue;
    }
    if (obs_) ++obs_->counters.fault_retries;
    trace_.emit<obs::Category::kFault>(sim_.now(), "retry", r.item, attempt);
    if (measured(r)) collector_->record_retry(r.cls);
    ++rerequests_pending_;
    sim_.schedule_in(config_.fault.retry.backoff_delay(attempt), [this, r]() {
      --rerequests_pending_;
      requeue_pull(r);
    });
  }
}

void HybridServer::deliver(const workload::Request& request, bool via_push) {
  const double now = sim_.now();
  if (obs_) {
    if (via_push) {
      ++obs_->counters.server_served_push;
    } else {
      ++obs_->counters.server_served_pull;
    }
    obs_->note_response(request.cls, now - request.arrival);
  }
  // Deliver-at-end: latency runs from the arrival to the transmission end,
  // never its start; the end is also the class's service instant, feeding
  // the inter-service-gap statistics.
  if (measured(request)) {
    collector_->record_served(request.cls, now - request.arrival, via_push,
                              now);
  }
  settle_one(request);
}

void HybridServer::arm_hedge(const workload::Request& request) {
  if (!hedging() || hedged_.contains(request.id)) return;
  hedge_timer_[request.id] = sim_.schedule_in(
      config_.hedge_after, [this, request]() { on_hedge_fire(request); });
}

void HybridServer::disarm_hedge(workload::RequestId request) {
  if (!hedging()) return;
  const des::EventId* event = hedge_timer_.find(request);
  if (event == nullptr) return;
  sim_.cancel(*event);
  hedge_timer_.erase(request);
}

void HybridServer::on_hedge_fire(const workload::Request& request) {
  hedge_timer_.erase(request.id);
  const std::size_t capacity = effective_queue_capacity();
  if (capacity > 0 && pull_queue_.total_requests() >= capacity) return;
  note_queue_len();
  workload::Request dup = request;
  dup.id |= kHedgeIdBit;
  dup.arrival = sim_.now();
  pull_queue_.add(dup, population_->priority(dup.cls),
                  catalog_->length(dup.item), catalog_->probability(dup.item));
  max_queue_len_ = std::max(max_queue_len_, pull_queue_.total_requests());
  hedged_.insert(request.id, true);
  ++hedges_posted_;
  trace_.emit<obs::Category::kRetry>(sim_.now(), "hedge", request.item,
                                     request.cls);
  wake_pull();
}

void HybridServer::remove_hedge_dup(const workload::Request& primary) {
  if (!hedging() || !hedged_.erase(primary.id)) return;
  // The duplicate rides the same item entry; it leaves with its primary.
  (void)pull_queue_.remove_request(primary.item, primary.id | kHedgeIdBit,
                                   population_->priority(primary.cls));
}

void HybridServer::on_arrival(const workload::Request& request) {
  if (draining_) return;  // admission has stopped
  ++arrivals_;
  if (estimator_) estimator_->observe(request.item, request.arrival);
  if (obs_) ++obs_->counters.server_arrivals;
  if (measured(request)) collector_->record_arrival(request.cls);
  if (listener_) listener_->on_arrival(request);
  if (pushed(request.item)) {
    // Push item: the request is "ignored" by the scheduler (the item is on
    // the broadcast program anyway); park it to measure its delay.
    push_waiters_[request.item].push_back(request);
    trace_.emit<obs::Category::kQueue>(sim_.now(), "park_push", request.item,
                                       request.cls);
    arm_patience(request);
    return;
  }
  if (uplink_rejected(request.cls)) {
    // The ladder's admission control refuses the class at the uplink; the
    // request never enters server state.
    if (obs_) ++obs_->counters.server_rejected;
    trace_.emit<obs::Category::kLadder>(sim_.now(), "reject", request.item,
                                        request.cls);
    if (measured(request)) collector_->record_rejected(request.cls);
    settle_one(request);
    return;
  }
  if (down_) {
    // The server is dark; the request reaches it at recovery. Clients do
    // not abandon while parked (no patience armed until the queue admits
    // them).
    downtime_parked_.push_back(request);
    return;
  }
  note_queue_len();
  if (!admit_pull(request)) return;  // shed by the bounded-queue policy
  pull_queue_.add(request, population_->priority(request.cls),
                  catalog_->length(request.item),
                  catalog_->probability(request.item));
  max_queue_len_ = std::max(max_queue_len_, pull_queue_.total_requests());
  trace_.emit<obs::Category::kQueue>(
      sim_.now(), "enter", request.item, request.cls,
      static_cast<double>(pull_queue_.total_requests()));
  arm_patience(request);
  arm_hedge(request);
  // A pure-pull server (cutoff 0), or an idle pull channel, sleeping on an
  // empty queue: wake it.
  wake_pull();
}

void HybridServer::wake_pull() {
  for (std::size_t c = dedicated() ? 1 : 0; c < channels_.size(); ++c) {
    if (!channels_[c].busy) {
      channels_[c].busy = true;
      serve_next(c, /*just_did_push=*/true);
    }
  }
}

void HybridServer::serve_next(std::size_t channel, bool just_did_push) {
  if (settled_ == to_settle_) {
    channels_[channel].busy = false;
    return;
  }
  const double now = sim_.now();
  // No broadcast while the push set is empty or a drain flushes the pull
  // side (pull entries back to back).
  const bool broadcasting = effective_cutoff() > 0 && !draining_;
  if (dedicated()) {
    // The broadcast channel pushes back to back and each pull channel
    // pulls: the channels never contend, so nothing alternates.
    if (channel == 0 ? !broadcasting : pull_queue_.empty()) {
      channels_[channel].busy = false;
    } else if (channel == 0) {
      start_push(now);
    } else {
      start_pull(channel, now);
    }
    return;
  }
  if (!broadcasting) {
    // Idle on an empty queue until an arrival, a retry or a hedge wakes us.
    if (pull_queue_.empty()) {
      channels_[0].busy = false;
      return;
    }
    start_pull(0, now);
    return;
  }
  // Strict alternation: one pull opportunity after every push.
  if (just_did_push && !pull_queue_.empty()) {
    start_pull(0, now);
  } else {
    start_push(now);
  }
}

void HybridServer::start_push(double now) {
  const catalog::ItemId item = ranking_[push_sched_->next()];
  // Only clients already waiting when the transmission starts catch it;
  // arrivals during the airtime wait for the next replica. The park is
  // cleared in place, so it and the on-air buffer keep their capacity.
  std::vector<workload::Request>& park = push_waiters_[item];
  Channel& channel = channels_[0];
  channel.on_air.kind = OnAir::Kind::kPush;
  channel.on_air.item = item;
  channel.on_air.catching.assign(park.begin(), park.end());
  park.clear();
  const std::vector<workload::Request>& catching = channel.on_air.catching;
  // Once the item is on air, the waiting clients are committed to it.
  for (const auto& r : catching) disarm_patience(r.id);
  trace_.emit<obs::Category::kPush>(now, "tx_start", item, catching.size(),
                                    catalog_->length(item));
  if (listener_) listener_->on_transmission(true, now, item, catching.size());
  channel.airtime += catalog_->length(item);
  const std::uint64_t epoch = server_epoch_;
  sim_.schedule_in(catalog_->length(item),
                   [this, epoch]() { end_push(epoch); });
}

void HybridServer::end_push(std::uint64_t epoch) {
  if (epoch != server_epoch_) return;  // voided by a crash
  OnAir& on_air = channels_[0].on_air;
  on_air.kind = OnAir::Kind::kNone;
  // Nothing below starts a transmission on this channel before the closing
  // serve_next, so the record is stable while its passengers are settled.
  const catalog::ItemId item = on_air.item;
  const std::vector<workload::Request>& catching = on_air.catching;
  ++push_transmissions_;
  if (obs_) ++obs_->counters.push_tx;
  trace_.emit<obs::Category::kPush>(sim_.now(), "tx_end", item,
                                    catching.size());
  if (transmission_corrupted()) {
    // A corrupted broadcast needs no re-request: the item comes around
    // again next cycle, so the waiters just rejoin the (re-armed) park and
    // their delay grows by one period. Unless the ladder shrank the item
    // out of the broadcast program while this replica was on air — then
    // the park would strand them forever (no next cycle, and the shrink
    // migration can't see passengers of an in-flight transmission), so
    // they are pull requests again and re-enter through admission control.
    // requeue_pull's wake is a no-op here (the server is busy), so the
    // serve_next below still decides with every passenger queued.
    ++corrupted_push_transmissions_;
    if (obs_) ++obs_->counters.fault_corrupt_push;
    trace_.emit<obs::Category::kFault>(sim_.now(), "corrupt_push", item,
                                       catching.size());
    const bool still_broadcast = pushed(item);
    for (const auto& r : catching) {
      if (measured(r)) collector_->record_corrupted(r.cls);
      if (still_broadcast) {
        push_waiters_[item].push_back(r);
        arm_patience(r);
      } else {
        requeue_pull(r);
      }
    }
  } else {
    for (const auto& r : catching) deliver(r, true);
  }
  serve_next(0, /*just_did_push=*/true);
}

void HybridServer::start_pull(std::size_t channel, double now) {
  note_queue_len();
  sched::PullContext ctx;
  ctx.now = now;
  ctx.expected_queue_len = now > 0.0 ? queue_len_area_ / now : 1.0;
  auto entry = pull_queue_.extract_best(*pull_policy_, ctx);
  if (!entry.has_value()) {
    throw std::logic_error(
        "HybridServer: start_pull on an empty pull queue; serve_next must "
        "only schedule a pull opportunity while entries are pending");
  }
  note_queue_len();
  trace_.emit<obs::Category::kQueue>(
      now, "extract", entry->item, entry->pending.size(),
      static_cast<double>(pull_queue_.total_requests()));
  for (const auto& r : entry->pending) {
    if (is_hedge_dup(r)) {
      hedged_.erase(r.id & ~kHedgeIdBit);
      continue;
    }
    disarm_patience(r.id);
    disarm_hedge(r.id);
  }

  const double demand = config_.mean_bandwidth_demand > 0.0
                            ? static_cast<double>(rng::poisson(
                                  demand_eng_, config_.mean_bandwidth_demand))
                            : 0.0;
  const workload::ClassId cls = owning_class(*entry);
  const bool admitted = bandwidth_.try_acquire(cls, demand);
  if (config_.resilience.overload.enabled) {
    const double alpha = config_.resilience.overload.ewma_alpha;
    blocking_ewma_[cls] = alpha * (admitted ? 0.0 : 1.0) +
                          (1.0 - alpha) * blocking_ewma_[cls];
  }
  if (!admitted) {
    ++blocked_transmissions_;
    if (obs_) {
      ++obs_->counters.blocked_tx;
      obs_->counters.blocked_requests += entry->pending.size();
    }
    trace_.emit<obs::Category::kPull>(now, "blocked", entry->item, cls,
                                      demand);
    for (const auto& r : entry->pending) {
      if (is_hedge_dup(r)) continue;
      retry_count_.erase(r.id);
      if (measured(r)) collector_->record_blocked(r.cls);
      settle_one(r);
    }
    serve_next(channel, /*just_did_push=*/false);
    return;
  }
  trace_.emit<obs::Category::kPull>(now, "tx_start", entry->item,
                                    entry->pending.size(), demand);
  if (listener_) {
    listener_->on_transmission(false, now, entry->item, entry->pending.size());
  }
  Channel& ch = channels_[channel];
  ch.on_air.kind = OnAir::Kind::kPull;
  ch.on_air.entry = std::move(*entry);
  ch.on_air.cls = cls;
  ch.on_air.demand = demand;
  ch.airtime += ch.on_air.entry.length;
  const std::uint64_t epoch = server_epoch_;
  sim_.schedule_in(ch.on_air.entry.length,
                   [this, channel, epoch]() { end_pull(channel, epoch); });
}

void HybridServer::end_pull(std::size_t channel, std::uint64_t epoch) {
  if (epoch != server_epoch_) return;  // voided by a crash
  OnAir& on_air = channels_[channel].on_air;
  on_air.kind = OnAir::Kind::kNone;
  // As in end_push, the record is stable until the closing serve_next.
  const sched::PullEntry& entry = on_air.entry;
  bandwidth_.release(on_air.cls, on_air.demand);
  ++pull_transmissions_;
  if (obs_) ++obs_->counters.pull_tx;
  trace_.emit<obs::Category::kPull>(sim_.now(), "tx_end", entry.item,
                                    entry.pending.size());
  if (transmission_corrupted()) {
    ++corrupted_pull_transmissions_;
    if (obs_) ++obs_->counters.fault_corrupt_pull;
    trace_.emit<obs::Category::kFault>(sim_.now(), "corrupt_pull", entry.item,
                                       entry.pending.size());
    on_pull_corrupted(entry);
  } else {
    for (const auto& r : entry.pending) {
      if (is_hedge_dup(r)) {
        ++hedges_absorbed_;
        continue;
      }
      retry_count_.erase(r.id);
      deliver(r, false);
    }
  }
  serve_next(channel, /*just_did_push=*/false);
}

std::size_t HybridServer::effective_cutoff() const noexcept {
  return std::min(cutoff_ + cutoff_boost_, catalog_->size());
}

std::size_t HybridServer::effective_queue_capacity() const noexcept {
  if (config_.fault.queue_capacity > 0) return config_.fault.queue_capacity;
  if (overload_.level() >= resilience::OverloadLevel::kShedLowPriority) {
    return config_.resilience.overload.capacity_ref;  // ladder soft cap
  }
  return 0;
}

fault::ShedPolicy HybridServer::effective_shed_policy() const noexcept {
  if (overload_.level() >= resilience::OverloadLevel::kShedLowPriority) {
    return fault::ShedPolicy::kDropLowestPriority;
  }
  return config_.fault.shed_policy;
}

bool HybridServer::uplink_rejected(workload::ClassId cls) const noexcept {
  const std::size_t classes = population_->num_classes();
  if (classes < 2) return false;  // never starve a single-class population
  if (overload_.level() >= resilience::OverloadLevel::kBrownout) {
    return cls >= 1;  // only the most important class is admitted
  }
  if (overload_.level() >= resilience::OverloadLevel::kAdmissionControl) {
    return cls == classes - 1;
  }
  return false;
}

void HybridServer::on_crash() {
  if (settled_ == to_settle_) return;  // the run already drained
  const double crash_time = sim_.now();
  const double recovery_time = crash_time + config_.resilience.crash.downtime;
  ++crash_count_;
  if (obs_) ++obs_->counters.crash_count;
  trace_.emit<obs::Category::kCrash>(crash_time, "crash", crash_count_, 0,
                                     config_.resilience.crash.downtime);
  total_downtime_ += config_.resilience.crash.downtime;
  ++server_epoch_;  // voids every in-flight transmission-end event
  down_ = true;
  // Recovery is scheduled before any storm re-request so that, at equal
  // instants, the server is back up before the first re-request lands.
  sim_.schedule_at(recovery_time, [this]() { on_recovered(); });

  std::vector<workload::Request> storm;
  for (Channel& channel : channels_) {
    channel.busy = false;
    OnAir& on_air = channel.on_air;
    if (on_air.kind == OnAir::Kind::kPush) {
      // Clients committed to the on-air broadcast never got the item; their
      // state is client-side, so they rejoin the park and wait for the next
      // cycle after recovery. Unless the item left the push set during the
      // airtime: no cycle will carry it, so they re-request in the storm
      // like the on-air pull's passengers.
      const bool still_broadcast = pushed(on_air.item);
      for (const auto& r : on_air.catching) {
        if (still_broadcast) {
          push_waiters_[on_air.item].push_back(r);
          arm_patience(r);
        } else {
          storm.push_back(r);
        }
      }
    } else if (on_air.kind == OnAir::Kind::kPull) {
      // The on-air pull transmission is lost with the server; its bandwidth
      // grant must be returned to the pool (the end event will never fire).
      bandwidth_.release(on_air.cls, on_air.demand);
      for (const auto& r : on_air.entry.pending) storm.push_back(r);
    }
    on_air.kind = OnAir::Kind::kNone;
  }

  // Queue state is server-side and dies with it. Warm recovery restores
  // the requests covered by the latest snapshot (decoded through the
  // versioned codec — the same path a process restart would take); cold
  // recovery loses everything, including the broadcast-cycle position.
  std::unordered_set<std::uint64_t> restored;
  if (config_.resilience.crash.recovery == resilience::RecoveryMode::kWarm &&
      !latest_snapshot_.empty()) {
    const resilience::QueueSnapshot snap =
        resilience::decode_snapshot(latest_snapshot_, snapshot_fingerprint_);
    for (const std::uint64_t id : snap.queued) restored.insert(id);
  } else if (config_.resilience.crash.recovery ==
             resilience::RecoveryMode::kCold) {
    if (push_sched_) push_sched_->reset();
  }
  std::vector<workload::Request> wiped;
  for (const auto& entry : pull_queue_.entries()) {
    for (const auto& r : entry.pending) {
      if (!restored.contains(r.id)) wiped.push_back(r);
    }
  }
  note_queue_len();
  for (const auto& r : wiped) {
    disarm_patience(r.id);
    pull_queue_.remove_request(r.item, r.id, population_->priority(r.cls));
    storm.push_back(r);
  }

  storm_rerequests_ += storm.size();
  largest_storm_ = std::max(largest_storm_, storm.size());
  if (obs_) obs_->counters.crash_storm += storm.size();
  trace_.emit<obs::Category::kCrash>(crash_time, "storm", storm.size(),
                                     crash_count_);
  for (const auto& r : storm) storm_rerequest(r, crash_time, recovery_time);
}

void HybridServer::storm_rerequest(const workload::Request& request,
                                   double crash_time, double recovery_time) {
  if (measured(request)) collector_->record_stormed(request.cls);
  const double spread = config_.resilience.crash.storm_spread;
  // At zero spread no draw is consumed, so a deliberately synchronized
  // storm replays identically with or without the jitter stream advanced.
  const double jitter =
      spread > 0.0 ? rng::uniform(*storm_eng_, 0.0, spread) : 0.0;
  const double when =
      recovery_time + config_.resilience.crash.rerequest_timeout + jitter;
  // Pending until it lands, so a drain waits for it and finish() counts it.
  ++rerequests_pending_;
  sim_.schedule_at(when, [this, request, crash_time]() {
    --rerequests_pending_;
    recovery_latency_.add(sim_.now() - crash_time);
    requeue_pull(request);
  });
}

void HybridServer::on_recovered() {
  down_ = false;
  trace_.emit<obs::Category::kCrash>(sim_.now(), "recover",
                                     downtime_parked_.size(), crash_count_);
  // Requests that arrived (or matured from retry backoffs) while the
  // server was dark land now, in arrival order.
  std::vector<workload::Request> parked = std::move(downtime_parked_);
  downtime_parked_.clear();
  for (const auto& r : parked) requeue_pull(r);
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    if (!channels_[c].busy && settled_ < to_settle_) {
      channels_[c].busy = true;
      serve_next(c, /*just_did_push=*/true);
    }
  }
}

void HybridServer::take_snapshot() {
  if (settled_ == to_settle_) return;
  if (!down_) {
    resilience::QueueSnapshot snap;
    snap.time = sim_.now();
    for (const auto& entry : pull_queue_.entries()) {
      for (const auto& r : entry.pending) snap.queued.push_back(r.id);
    }
    latest_snapshot_ = resilience::encode_snapshot(snap, snapshot_fingerprint_);
    if (obs_) ++obs_->counters.crash_snapshots;
    trace_.emit<obs::Category::kCrash>(sim_.now(), "snapshot",
                                       snap.queued.size());
  }
  sim_.schedule_in(config_.resilience.crash.snapshot_interval,
                   [this]() { take_snapshot(); });
}

void HybridServer::evaluate_overload() {
  // A finished or draining run stops re-evaluating.
  if (settled_ == to_settle_ || draining_) return;
  const resilience::OverloadConfig& ladder = config_.resilience.overload;
  // Occupancy counts the requests the widen-push boost parked out of the
  // pull queue: they are still the ladder's backlog until delivered.
  // Excluding them makes the controller oscillate (widening empties the
  // queue, the next eval sees zero occupancy and de-escalates, the shrink
  // refills the queue), and each flip restarts the push program, which can
  // starve the de-widened items forever when no patience timer reaps them.
  const std::size_t cap = config_.fault.queue_capacity > 0
                              ? config_.fault.queue_capacity
                              : ladder.capacity_ref;
  const std::size_t cut = effective_cutoff();
  std::size_t backlog = pull_queue_.total_requests();
  for (std::size_t rank = cutoff_; rank < cut; ++rank) {
    backlog += push_waiters_[ranking_[rank]].size();
  }
  const double occupancy =
      static_cast<double>(backlog) / static_cast<double>(cap);
  // The pressure signal: the worst per-class blocking EWMA.
  double worst_ewma = 0.0;
  for (const double e : blocking_ewma_) worst_ewma = std::max(worst_ewma, e);
  const resilience::OverloadLevel before = overload_.level();
  const resilience::OverloadLevel after =
      overload_.update(sim_.now(), occupancy, worst_ewma, trace_);
  if (after != before) {
    if (obs_) ++obs_->counters.ladder_transitions;
    // Reported before the new level acts, so a journal reads transitions in
    // causal order with the decisions they cause.
    if (listener_) listener_->on_ladder(sim_.now(), before, after);
    apply_overload_level(after);
  }
  sim_.schedule_in(ladder.eval_interval, [this]() { evaluate_overload(); });
}

void HybridServer::apply_overload_level(resilience::OverloadLevel level) {
  // Shedding policy and soft cap are consulted on the fly by
  // effective_shed_policy()/effective_queue_capacity(); the only action
  // with state to migrate is the widen-push cutoff boost.
  const std::size_t boost =
      level >= resilience::OverloadLevel::kWidenPush
          ? config_.resilience.overload.cutoff_step
          : 0;
  if (boost != cutoff_boost_) apply_cutoff_boost(boost);
}

void HybridServer::apply_cutoff_boost(std::size_t boost) {
  const std::size_t old_cut = effective_cutoff();
  const std::size_t new_cut = std::min(cutoff_ + boost, catalog_->size());
  if (new_cut == old_cut) {
    cutoff_boost_ = boost;
    return;
  }
  if (obs_) ++obs_->counters.cutoff_boosts;
  trace_.emit<obs::Category::kCutoff>(sim_.now(), "boost", old_cut, new_cut);
  move_push_set(cutoff_, boost, {});
}

void HybridServer::reoptimize() {
  // A finished or draining run stops re-optimizing.
  if (settled_ == to_settle_ || draining_) return;
  sim_.schedule_in(config_.reoptimize_interval, [this]() { reoptimize(); });
  const double now = sim_.now();
  if (arrivals_ == 0 || now <= 0.0) return;
  // The estimated catalog: estimated popularity in rank order with the true
  // item lengths, offered at the measured aggregate arrival rate.
  std::vector<catalog::ItemId> ranking = estimator_->ranking();
  const std::vector<double> probs = estimator_->probabilities();
  std::vector<double> lengths(ranking.size());
  std::vector<double> weights(ranking.size());
  for (std::size_t r = 0; r < ranking.size(); ++r) {
    lengths[r] = catalog_->length(ranking[r]);
    weights[r] = probs[ranking[r]];
  }
  const catalog::Catalog estimated(std::move(lengths), std::move(weights));
  const queueing::HybridAccessModel model(
      estimated, *population_, static_cast<double>(arrivals_) / now);
  const CutoffScan scan = scan_cutoffs(
      0, estimated.size(), kReoptimizeScanStep,
      [&](std::size_t k) { return model.prioritized_cost(k, config_.alpha); });
  ++reoptimizations_;
  cutoff_history_.emplace_back(now, scan.best_cutoff);
  // The program restarts even when K and the ranking are unchanged.
  move_push_set(scan.best_cutoff, cutoff_boost_, std::move(ranking));
}

void HybridServer::move_push_set(std::size_t cutoff, std::size_t boost,
                                 std::vector<catalog::ItemId> ranking) {
  const std::size_t old_cut = effective_cutoff();
  // Membership before the move is read off the ranks it was decided by.
  std::vector<catalog::ItemId> old_rank_of;
  if (!ranking.empty()) {
    old_rank_of = rank_of_;
    ranking_ = std::move(ranking);
    for (std::size_t r = 0; r < ranking_.size(); ++r) {
      rank_of_[ranking_[r]] = static_cast<catalog::ItemId>(r);
    }
  }
  const std::vector<catalog::ItemId>& was_rank =
      old_rank_of.empty() ? rank_of_ : old_rank_of;
  cutoff_ = cutoff;
  cutoff_boost_ = boost;
  const std::size_t new_cut = effective_cutoff();
  push_sched_ = new_cut > 0 ? sched::make_push_scheduler(config_.push_policy,
                                                         *catalog_, new_cut)
                            : nullptr;
  // Newly pushed items ride the broadcast. Their queued requests become push
  // waiters; patience timers stay armed (the client is still waiting for the
  // same item). Hedged duplicates die here: broadcast delivery needs no
  // importance boost.
  bool noted = false;
  for (std::size_t r = 0; r < new_cut; ++r) {
    const catalog::ItemId item = ranking_[r];
    if (was_rank[item] < old_cut) continue;
    if (!noted) {
      note_queue_len();
      noted = true;
    }
    auto entry = pull_queue_.extract(item);
    if (!entry.has_value()) continue;
    for (const auto& q : entry->pending) {
      if (is_hedge_dup(q)) {
        hedged_.erase(q.id & ~kHedgeIdBit);
        continue;
      }
      disarm_hedge(q.id);
      push_waiters_[q.item].push_back(q);
    }
  }
  // Newly pulled items: parked waiters are pull requests again and re-enter
  // through admission control.
  for (catalog::ItemId item = 0; item < catalog_->size(); ++item) {
    if (was_rank[item] >= old_cut || rank_of_[item] < new_cut) continue;
    std::vector<workload::Request> waiters = std::move(push_waiters_[item]);
    push_waiters_[item].clear();
    for (const auto& q : waiters) {
      disarm_patience(q.id);
      requeue_pull(q);
    }
  }
  if (!channels_[0].busy && !down_ && settled_ < to_settle_ && new_cut > 0) {
    // A broadcast asleep on an empty push set now has a program to run.
    channels_[0].busy = true;
    serve_next(0, /*just_did_push=*/true);
  }
}

void HybridServer::begin(std::span<const workload::Request> plan,
                         std::uint64_t expected, RunListener* listener,
                         const ClosedLoop* loop) {
  // Reset run-scoped state so a server can be reused across runs,
  // including the per-run random engines (bandwidth demands, patience).
  sim_.reset();
  demand_eng_ = rng::StreamFactory(config_.seed).stream("bandwidth-demand");
  patience_eng_ = rng::StreamFactory(config_.seed).stream("patience");
  if (channel_) {
    channel_->reset(rng::StreamFactory(config_.seed).stream("fault-channel"));
  }
  pull_queue_.clear();
  patience_.clear();
  retry_count_.clear();
  hedge_timer_.clear();
  hedged_.clear();
  // Observability: created fresh per run (after the queue clear above, so
  // leftover state never pollutes the new tallies), torn down to nothing
  // when disabled. The tracer handle is then the driver's, if any.
  config_.obs.validate();
  if (config_.obs.enabled) {
    obs_ = std::make_unique<obs::RunObserver>(config_.obs,
                                              population_->num_classes());
    trace_ = obs_->tracer();
  } else {
    obs_.reset();
    trace_ = external_trace_;
  }
  sim_.set_tracer(trace_);
  pull_queue_.set_counters(obs_ ? obs_->queue_counters() : nullptr);
  des_scheduled_base_ = sim_.scheduled_events();
  des_dispatched_base_ = sim_.dispatched_events();
  des_cancelled_base_ = sim_.cancelled_events();
  if (cutoff_boost_ > 0 || reoptimizing()) {
    // Undo a widen-push or a re-optimized push set left over from the
    // previous run.
    cutoff_boost_ = 0;
    cutoff_ = config_.cutoff;
    std::iota(ranking_.begin(), ranking_.end(), catalog::ItemId{0});
    rank_of_ = ranking_;
    push_sched_ = config_.cutoff > 0
                      ? sched::make_push_scheduler(config_.push_policy,
                                                   *catalog_, config_.cutoff)
                      : nullptr;
  }
  if (push_sched_) push_sched_->reset();
  reoptimizations_ = 0;
  cutoff_history_.clear();
  estimator_.reset();
  if (reoptimizing()) {
    estimator_.emplace(catalog_->size(), config_.estimator_half_life);
    cutoff_history_.emplace_back(0.0, config_.cutoff);
  }
  for (auto& waiters : push_waiters_) waiters.clear();
  collector_ = std::make_unique<metrics::ClassCollector>(
      population_->num_classes(), config_.tail_quantiles);
  listener_ = listener;
  to_settle_ = expected;
  settled_ = 0;
  arrivals_ = 0;
  end_time_ = 0.0;
  rerequests_pending_ = 0;
  draining_ = false;
  push_transmissions_ = 0;
  pull_transmissions_ = 0;
  blocked_transmissions_ = 0;
  corrupted_push_transmissions_ = 0;
  corrupted_pull_transmissions_ = 0;
  hedges_posted_ = 0;
  hedges_absorbed_ = 0;
  queue_len_area_ = 0.0;
  queue_len_last_t_ = 0.0;
  max_queue_len_ = 0;
  // A closed loop's span is its horizon.
  const des::SimTime span =
      loop != nullptr ? loop->horizon
                      : (plan.empty() ? 0.0 : plan.back().arrival);
  warmup_time_ = config_.warmup_fraction * span;

  // Resilience state. With crashes disabled and the ladder off nothing
  // below derives a stream or schedules an event, keeping the fault-free
  // path bit-identical.
  const resilience::CrashConfig& crash = config_.resilience.crash;
  down_ = false;
  server_epoch_ = 0;
  for (Channel& channel : channels_) {
    channel.on_air.kind = OnAir::Kind::kNone;
    channel.busy = false;
    channel.airtime = 0.0;
  }
  downtime_parked_.clear();
  storm_eng_.reset();
  latest_snapshot_.clear();
  crash_count_ = 0;
  total_downtime_ = 0.0;
  storm_rerequests_ = 0;
  largest_storm_ = 0;
  recovery_latency_ = metrics::Welford{};
  overload_.reset();
  blocking_ewma_.assign(population_->num_classes(), 0.0);
  crash_active_ = crash.enabled && crash.rate > 0.0;
  if (crash_active_) {
    storm_eng_ = rng::StreamFactory(config_.seed).stream("crash-storm");
    snapshot_fingerprint_ = rng::SplitMix64::mix(
        config_.seed ^
        rng::SplitMix64::mix((static_cast<std::uint64_t>(catalog_->size())
                              << 32) ^
                             population_->num_classes() ^
                             (static_cast<std::uint64_t>(config_.cutoff)
                              << 16)));
    const resilience::CrashSchedule schedule = resilience::CrashSchedule::
        poisson(crash, span,
                rng::StreamFactory(config_.seed).stream("crash-schedule"));
    for (const double t : schedule.times()) {
      sim_.schedule_at(t, [this]() { on_crash(); });
    }
    if (crash.recovery == resilience::RecoveryMode::kWarm &&
        !schedule.empty()) {
      sim_.schedule_at(crash.snapshot_interval, [this]() { take_snapshot(); });
    }
  }
  if (config_.resilience.overload.enabled) {
    sim_.schedule_at(config_.resilience.overload.eval_interval,
                     [this]() { evaluate_overload(); });
  }

  if (loop != nullptr) {
    // Every client starts with a think phase.
    loop_ = *loop;
    think_eng_ = rng::StreamFactory(config_.seed).stream("think");
    item_eng_ = rng::StreamFactory(config_.seed).stream("items");
    owner_.clear();
    for (std::size_t c = 0; c < loop->clients; ++c) think(c);
  } else {
    loop_.reset();
    sim_.stream_arrivals(
        {plan.size(), [plan](std::size_t i) { return plan[i].arrival; },
         [this, plan](std::size_t i) { on_arrival(plan[i]); }});
  }
  // Pure pull sleeps until the first arrival; pull channels always do.
  if (config_.cutoff > 0) {
    channels_[0].busy = true;
    sim_.schedule_at(0.0, [this]() { serve_next(0, /*just_did_push=*/true); });
  }
  if (reoptimizing()) {
    sim_.schedule_at(config_.reoptimize_interval, [this]() { reoptimize(); });
  }
}

SimResult HybridServer::run(const workload::Trace& trace) {
  return run(trace.requests(), 0.0, nullptr);
}

SimResult HybridServer::run(const ClosedLoop& loop) {
  require(loop.clients > 0, "a closed loop needs at least one client");
  require(loop.think_rate > 0.0 && std::isfinite(loop.think_rate),
          "think_rate must be a positive finite number");
  require(loop.horizon > 0.0 && std::isfinite(loop.horizon),
          "horizon must be a positive finite number");
  // Deterministic class assignment by cumulative population share.
  client_class_.assign(loop.clients, 0);
  double cumulative = 0.0;
  workload::ClassId cls = 0;
  for (std::size_t c = 0; c < loop.clients; ++c) {
    const double position = (static_cast<double>(c) + 0.5) /
                            static_cast<double>(loop.clients);
    while (cls + 1 < population_->num_classes() &&
           position >= cumulative + population_->share(cls)) {
      cumulative += population_->share(cls);
      ++cls;
    }
    client_class_[c] = cls;
  }
  begin({}, kNeverSettles, nullptr, &loop);
  sim_.run_until(loop.horizon);
  SimResult result = finish();
  const double window = loop.horizon * (1.0 - config_.warmup_fraction);
  result.throughput =
      static_cast<double>(result.overall().served) / window;
  return result;
}

SimResult HybridServer::run(std::span<const workload::Request> plan,
                            double drain_at, RunListener* listener) {
  begin(plan, plan.size(), listener);
  if (drain_at > 0.0) {
    // Every event strictly before the drain instant runs first.
    advance_to(std::nextafter(drain_at, 0.0));
    if (!done()) drain(drain_at);
  }
  if (draining_) {
    advance_to(des::Simulator::kForever);
  } else if (!done()) {
    sim_.run();  // settling the last request stops the kernel
  }
  return finish();
}

void HybridServer::start_realtime(std::uint64_t expected,
                                  RunListener* listener) {
  begin({}, expected, listener);
}

void HybridServer::advance_to(des::SimTime t) {
  while (!done() && sim_.next_time() <= t) sim_.step();
}

void HybridServer::arrive(workload::Request request, double observed) {
  advance_to(observed);
  request.arrival = std::max(observed, sim_.now());
  sim_.schedule_at(request.arrival, [this, request]() { on_arrival(request); });
  advance_to(request.arrival);
}

void HybridServer::drain(double at) {
  draining_ = true;
  const std::uint64_t skipped = to_settle_ - arrivals_;
  to_settle_ = arrivals_;  // only injected requests can still settle
  if (listener_) listener_->on_drain(at, skipped);
  trace_.emit<obs::Category::kDrain>(at, "drain", skipped);
}

bool HybridServer::done() const noexcept {
  if (settled_ == to_settle_) return true;
  if (!draining_ || !pull_queue_.empty() || rerequests_pending_ != 0) {
    return false;
  }
  return std::none_of(channels_.begin(), channels_.end(),
                      [](const Channel& c) { return c.busy; });
}

SimResult HybridServer::finish() {
  note_queue_len();
  if (obs_) {
    obs_->counters.des_scheduled =
        sim_.scheduled_events() - des_scheduled_base_;
    obs_->counters.des_dispatched =
        sim_.dispatched_events() - des_dispatched_base_;
    obs_->counters.des_cancelled =
        sim_.cancelled_events() - des_cancelled_base_;
  }

  SimResult result;
  result.per_class = collector_->all();
  result.end_time = end_time_;
  result.push_transmissions = push_transmissions_;
  result.pull_transmissions = pull_transmissions_;
  result.blocked_transmissions = blocked_transmissions_;
  result.corrupted_push_transmissions = corrupted_push_transmissions_;
  result.corrupted_pull_transmissions = corrupted_pull_transmissions_;
  result.mean_pull_queue_len =
      end_time_ > 0.0 ? queue_len_area_ / end_time_ : 0.0;
  result.max_pull_queue_len = max_queue_len_;
  result.crashes = crash_count_;
  result.total_downtime = total_downtime_;
  result.storm_rerequests = storm_rerequests_;
  result.largest_storm = largest_storm_;
  result.recovery_latency = recovery_latency_;
  result.overload_transitions = overload_.transitions();
  result.max_overload_level = overload_.max_level();
  result.event_order_violations = sim_.order_violations();
  result.hedges_posted = hedges_posted_;
  result.hedges_absorbed = hedges_absorbed_;
  // Counted structurally, not from the tallies, so a conservation check on
  // the result has teeth. Transmissions are on air at the end only when a
  // closed loop stops at its horizon.
  result.unsettled = pull_queue_.total_requests() + rerequests_pending_ +
                     downtime_parked_.size();
  for (const auto& waiters : push_waiters_) result.unsettled += waiters.size();
  result.channel_utilization.reserve(channels_.size());
  for (const Channel& channel : channels_) {
    const OnAir& on_air = channel.on_air;
    if (on_air.kind == OnAir::Kind::kPush) {
      result.unsettled += on_air.catching.size();
    } else if (on_air.kind == OnAir::Kind::kPull) {
      for (const auto& r : on_air.entry.pending) {
        if (!is_hedge_dup(r)) ++result.unsettled;
      }
    }
    result.channel_utilization.push_back(
        end_time_ > 0.0 ? channel.airtime / end_time_ : 0.0);
  }
  result.reoptimizations = reoptimizations_;
  result.cutoff_history = cutoff_history_;
  listener_ = nullptr;
  return result;
}

}  // namespace pushpull::core
