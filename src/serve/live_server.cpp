#include "serve/live_server.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/export.hpp"

namespace pushpull::serve {

using obs::render_number;

namespace {

/// The config, validated on its own and against the catalog and population
/// it will serve.
ServeConfig checked(ServeConfig config, const catalog::Catalog& cat,
                    const workload::ClientPopulation& pop) {
  config.validate();
  if (config.num_items != cat.size()) {
    throw std::invalid_argument(
        "LiveServer: config.num_items disagrees with the catalog");
  }
  if (config.num_classes != pop.num_classes()) {
    throw std::invalid_argument(
        "LiveServer: config.num_classes disagrees with the population");
  }
  return config;
}

/// What the driver keeps of a run as the engine reports it: the journal
/// (arrivals, decisions, ladder moves, the drain), the injected count, and
/// the pull-queue depth distribution.
class Journaler final : public core::RunListener {
 public:
  explicit Journaler(TraceRecorder* recorder) : recorder_(recorder) {}

  void on_arrival(const workload::Request& request) override {
    ++arrivals;
    if (recorder_) recorder_->record_request(request, request.arrival);
  }
  void on_transmission(bool push, double now, catalog::ItemId item,
                       std::size_t audience) override {
    if (recorder_) recorder_->record_decision(push, now, item, audience);
  }
  void on_ladder(double now, resilience::OverloadLevel from,
                 resilience::OverloadLevel to) override {
    if (recorder_) {
      recorder_->record_ladder(now, static_cast<int>(from),
                               static_cast<int>(to));
    }
  }
  void on_drain(double now, std::uint64_t skipped) override {
    drained = true;
    drain_time = now;
    skipped_arrivals = skipped;
    if (recorder_) recorder_->record_drain(now, skipped);
  }
  void on_queue_len(std::size_t len) override {
    queue_depth.add(static_cast<double>(len));
  }

  std::uint64_t arrivals = 0;
  bool drained = false;
  double drain_time = 0.0;
  std::uint64_t skipped_arrivals = 0;
  obs::QuantileTrack queue_depth;

 private:
  TraceRecorder* recorder_;
};

/// Builds the conservation ledger from the engine's counts, machine-checks
/// it (std::logic_error on any imbalance), seals the journal with it, and
/// assembles the report.
ServeReport make_report(const ServeConfig& config,
                        const core::SimResult& result,
                        const Journaler& journal, TraceRecorder* recorder) {
  const metrics::ClassStats agg = result.overall();
  ConservationLedger ledger;
  ledger.injected = journal.arrivals;
  ledger.delivered = agg.served;
  ledger.timed_out = agg.abandoned;
  ledger.rejected = agg.rejected;
  ledger.shed = agg.shed;
  ledger.lost = agg.lost;
  ledger.in_flight_at_drain = result.unsettled;
  if (!journal.drained && ledger.in_flight_at_drain != 0) {
    throw std::logic_error(
        "LiveServer: conservation violation — " +
        std::to_string(ledger.in_flight_at_drain) +
        " requests still structurally in flight after a completed "
        "(non-drained) run");
  }
  if (!ledger.balanced()) {
    throw std::logic_error(
        "LiveServer: conservation violation — ledger does not balance: " +
        ledger.render_json());
  }
  if (agg.blocked != 0) {
    throw std::logic_error(
        "LiveServer: conservation violation — the live channel cannot "
        "block transmissions");
  }
  if (recorder) recorder->seal(ledger);

  ServeReport report;
  report.accelerated = config.accelerated;
  report.duration = config.duration;
  report.target_qps = config.target_qps;
  report.end_time = result.end_time;
  report.arrivals = journal.arrivals;
  report.served = agg.served;
  report.push_transmissions = result.push_transmissions;
  report.pull_transmissions = result.pull_transmissions;
  report.achieved_qps =
      result.end_time > 0.0
          ? static_cast<double>(journal.arrivals) / result.end_time
          : 0.0;
  report.mean_pull_queue_len = result.mean_pull_queue_len;
  report.max_pull_queue_len = result.max_pull_queue_len;
  const obs::QuantileTrack& depth = journal.queue_depth;
  report.queue_depth.name = "pull_queue_len";
  report.queue_depth.count = depth.moments().count();
  report.queue_depth.mean = depth.moments().mean();
  report.queue_depth.min = depth.moments().min();
  report.queue_depth.max = depth.moments().max();
  if (report.queue_depth.count > 0) {
    report.queue_depth.p50 = depth.p50();
    report.queue_depth.p90 = depth.p90();
    report.queue_depth.p99 = depth.p99();
  }
  report.per_class = result.per_class;
  report.robust = config.robust();
  report.timed_out = agg.abandoned;
  report.retries = agg.retries;
  report.lost = agg.lost;
  report.shed = agg.shed;
  report.rejected = agg.rejected;
  report.corrupted = agg.corrupted;
  report.corrupted_push_transmissions = result.corrupted_push_transmissions;
  report.corrupted_pull_transmissions = result.corrupted_pull_transmissions;
  report.hedges_posted = result.hedges_posted;
  report.hedges_absorbed = result.hedges_absorbed;
  report.ladder_transitions = result.overload_transitions.size();
  report.overload_transitions = result.overload_transitions;
  report.max_overload_level = result.max_overload_level;
  report.drained = journal.drained;
  report.drain_time = journal.drain_time;
  report.skipped_arrivals = journal.skipped_arrivals;
  report.ledger = ledger;
  return report;
}

}  // namespace

LiveServer::LiveServer(const catalog::Catalog& cat,
                       const workload::ClientPopulation& pop,
                       ServeConfig config)
    : config_(checked(std::move(config), cat, pop)),
      engine_(cat, pop, config_.hybrid()) {}

ServeReport LiveServer::run_accelerated(LoadDriver& driver,
                                        TraceRecorder* recorder) {
  Journaler journal(recorder);
  const std::span<const workload::Request> plan =
      driver.plan().requests().subspan(driver.plan().size() -
                                       driver.remaining());
  const core::SimResult result =
      engine_.run(plan, config_.drain_after, &journal);
  return make_report(config_, result, journal, recorder);
}

ServeReport LiveServer::run_realtime(CompletionQueue& queue, Clock& clock,
                                     std::uint64_t planned,
                                     TraceRecorder* recorder) {
  Journaler journal(recorder);
  engine_.start_realtime(planned, &journal);
  bool load_done = false;
  while (!engine_.done()) {
    if (!journal.drained) {
      const bool external =
          drain_flag_ != nullptr &&
          drain_flag_->load(std::memory_order_relaxed);
      const bool horizon =
          config_.drain_after > 0.0 && clock.now() >= config_.drain_after;
      if (external || horizon) {
        const double at = horizon && !external
                              ? config_.drain_after
                              : clock.now();
        engine_.advance_to(at);
        engine_.drain(at);
        continue;
      }
    }
    if (!load_done) {
      const double timeout =
          std::min(0.05, clock.seconds_until(engine_.next_event_time()));
      const std::optional<Completion> c = queue.pop(std::max(timeout, 0.0));
      if (c.has_value()) {
        // The engine runs up to the arrival's observed stamp first, so the
        // arrival can only ride a transmission that starts after it was
        // observed. A drained loop discards late arrivals: they are part
        // of the skipped count stamped at engagement.
        if (c->kind == CompletionKind::kArrival && !journal.drained) {
          engine_.arrive(c->request, c->time);
        }
      } else if (queue.closed() && queue.depth() == 0) {
        load_done = true;
      }
    } else if (engine_.next_event_time() < des::Simulator::kForever) {
      // No more producers: pace out the remaining work.
      const double budget = clock.seconds_until(engine_.next_event_time());
      if (budget > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(budget));
      }
    } else {
      throw std::logic_error(
          "LiveServer: stalled — load ended and server idle while "
          "requests remain unsettled");
    }
    engine_.advance_to(clock.now());
  }
  ServeReport report =
      make_report(config_, engine_.finish(), journal, recorder);
  report.cq_posted = queue.posted();
  report.cq_high_water = queue.high_water();
  return report;
}

std::string render_serve_report(const ServeReport& report) {
  std::ostringstream out;
  out << "{\"schema\":\"serve1\""
      << ",\"accelerated\":" << (report.accelerated ? 1 : 0)
      << ",\"duration\":" << render_number(report.duration)
      << ",\"target_qps\":" << render_number(report.target_qps)
      << ",\"achieved_qps\":" << render_number(report.achieved_qps)
      << ",\"end_time\":" << render_number(report.end_time)
      << ",\"arrivals\":" << report.arrivals
      << ",\"served\":" << report.served
      << ",\"push_tx\":" << report.push_transmissions
      << ",\"pull_tx\":" << report.pull_transmissions
      << ",\"mean_pull_queue_len\":"
      << render_number(report.mean_pull_queue_len)
      << ",\"max_pull_queue_len\":" << report.max_pull_queue_len
      << ",\"queue_depth\":{\"count\":" << report.queue_depth.count
      << ",\"mean\":" << render_number(report.queue_depth.mean)
      << ",\"max\":" << render_number(report.queue_depth.max)
      << ",\"p50\":" << render_number(report.queue_depth.p50)
      << ",\"p90\":" << render_number(report.queue_depth.p90)
      << ",\"p99\":" << render_number(report.queue_depth.p99) << "}"
      << ",\"cq_posted\":" << report.cq_posted
      << ",\"cq_high_water\":" << report.cq_high_water;
  if (report.robust) {
    out << ",\"timed_out\":" << report.timed_out
        << ",\"retries\":" << report.retries
        << ",\"lost\":" << report.lost << ",\"shed\":" << report.shed
        << ",\"rejected\":" << report.rejected
        << ",\"corrupted\":" << report.corrupted
        << ",\"hedges_posted\":" << report.hedges_posted
        << ",\"hedges_absorbed\":" << report.hedges_absorbed
        << ",\"ladder_transitions\":" << report.ladder_transitions
        << ",\"max_overload_level\":"
        << static_cast<int>(report.max_overload_level)
        << ",\"drained\":" << (report.drained ? 1 : 0)
        << ",\"drain_time\":" << render_number(report.drain_time)
        << ",\"skipped_arrivals\":" << report.skipped_arrivals
        << ",\"ledger\":" << report.ledger.render_json();
  }
  out << "}\n";
  for (std::size_t cls = 0; cls < report.per_class.size(); ++cls) {
    const metrics::ClassStats& s = report.per_class[cls];
    out << "{\"class\":" << cls << ",\"arrived\":" << s.arrived
        << ",\"served\":" << s.served
        << ",\"served_push\":" << s.served_push
        << ",\"served_pull\":" << s.served_pull
        << ",\"mean_wait\":" << render_number(s.wait.mean())
        << ",\"wait_p50\":"
        << render_number(s.wait_p50.count() ? s.wait_p50.value() : 0.0)
        << ",\"wait_p95\":"
        << render_number(s.wait_p95.count() ? s.wait_p95.value() : 0.0)
        << ",\"wait_p99\":"
        << render_number(s.wait_p99.count() ? s.wait_p99.value() : 0.0);
    if (report.robust) {
      out << ",\"timed_out\":" << s.abandoned
          << ",\"retries\":" << s.retries << ",\"shed\":" << s.shed
          << ",\"lost\":" << s.lost << ",\"rejected\":" << s.rejected;
    }
    out << "}\n";
  }
  return out.str();
}

}  // namespace pushpull::serve
