// Unit and behavioral tests for the hybrid server: conservation,
// determinism, push/pull mechanics, blocking, warm-up and edge cutoffs,
// config validation, and the serve layer's driver entry points.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/catalog.hpp"
#include "catalog/length_model.hpp"
#include "core/hybrid_server.hpp"
#include "exp/chaos.hpp"
#include "exp/scenario.hpp"

namespace pushpull::core {
namespace {

exp::Scenario small_scenario() {
  exp::Scenario s;
  s.num_items = 50;
  s.num_requests = 5000;
  return s;
}

TEST(HybridServer, ConservationOfRequests) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 20;
  const SimResult result = exp::run_hybrid(built, config);
  const auto overall = result.overall();
  EXPECT_EQ(overall.arrived, built.trace.size());
  EXPECT_EQ(overall.served + overall.blocked, overall.arrived);
}

TEST(HybridServer, DeterministicAcrossRuns) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 15;
  const SimResult a = exp::run_hybrid(built, config);
  const SimResult b = exp::run_hybrid(built, config);
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.push_transmissions, b.push_transmissions);
  EXPECT_EQ(a.pull_transmissions, b.pull_transmissions);
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    EXPECT_DOUBLE_EQ(a.per_class[c].wait.mean(), b.per_class[c].wait.mean());
  }
}

TEST(HybridServer, ServerObjectIsReusable) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 15;
  HybridServer server(built.catalog, built.population, config);
  const SimResult a = server.run(built.trace);
  const SimResult b = server.run(built.trace);
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.overall().served, b.overall().served);
}

TEST(HybridServer, PurePushServesEverythingViaBroadcast) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = built.catalog.size();
  const SimResult result = exp::run_hybrid(built, config);
  const auto overall = result.overall();
  EXPECT_EQ(overall.served, overall.arrived);
  EXPECT_EQ(overall.served_pull, 0u);
  EXPECT_EQ(result.pull_transmissions, 0u);
  // Flat broadcast delay is bounded by one full cycle plus the longest item.
  const double cycle = built.catalog.push_cycle_length(config.cutoff);
  EXPECT_LE(overall.wait.max(), cycle + 5.0);
  EXPECT_GT(overall.wait.mean(), 0.0);
}

TEST(HybridServer, PurePushDelayIsAboutHalfCycle) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = built.catalog.size();
  const SimResult result = exp::run_hybrid(built, config);
  const double cycle = built.catalog.push_cycle_length(config.cutoff);
  const double mean = result.overall().wait.mean();
  EXPECT_GT(mean, 0.3 * cycle);
  EXPECT_LT(mean, 0.8 * cycle);
}

TEST(HybridServer, PurePullServesEverythingOnDemand) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 0;
  const SimResult result = exp::run_hybrid(built, config);
  const auto overall = result.overall();
  EXPECT_EQ(overall.served, overall.arrived);
  EXPECT_EQ(overall.served_push, 0u);
  EXPECT_EQ(result.push_transmissions, 0u);
  EXPECT_GT(result.pull_transmissions, 0u);
}

TEST(HybridServer, PullNeverOutpacesPushByMoreThanOne) {
  // Strict alternation: between two pull transmissions there is at least
  // one push (for hybrid cutoffs).
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 10;
  const SimResult result = exp::run_hybrid(built, config);
  EXPECT_LE(result.pull_transmissions, result.push_transmissions + 1);
}

TEST(HybridServer, UnconstrainedChannelNeverBlocks) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 20;
  config.total_bandwidth = 0.0;
  const SimResult result = exp::run_hybrid(built, config);
  EXPECT_EQ(result.overall().blocked, 0u);
  EXPECT_EQ(result.blocked_transmissions, 0u);
}

TEST(HybridServer, TinyBandwidthBlocksPulls) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 10;
  config.total_bandwidth = 0.3;  // pools so small most Poisson(1) draws fail
  config.mean_bandwidth_demand = 1.0;
  const SimResult result = exp::run_hybrid(built, config);
  EXPECT_GT(result.overall().blocked, 0u);
  EXPECT_GT(result.blocked_transmissions, 0u);
  // Conservation still holds with blocking.
  const auto overall = result.overall();
  EXPECT_EQ(overall.served + overall.blocked, overall.arrived);
}

TEST(HybridServer, GenerousPremiumBandwidthProtectsClassA) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 10;
  config.total_bandwidth = 6.0;
  config.mean_bandwidth_demand = 2.0;
  // Class A gets 70% of the channel, B and C split the rest.
  config.bandwidth_fractions = {0.7, 0.2, 0.1};
  const SimResult result = exp::run_hybrid(built, config);
  EXPECT_LT(result.per_class[0].blocking_ratio(),
            result.per_class[2].blocking_ratio());
}

TEST(HybridServer, WarmupExcludesEarlyRequests) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 20;
  config.warmup_fraction = 0.3;
  const SimResult result = exp::run_hybrid(built, config);
  const auto overall = result.overall();
  EXPECT_LT(overall.arrived, built.trace.size());
  EXPECT_GT(overall.arrived, built.trace.size() / 2);
  EXPECT_EQ(overall.served + overall.blocked, overall.arrived);
}

TEST(HybridServer, AllRequestsForPushItemsServedByPush) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 25;
  const SimResult result = exp::run_hybrid(built, config);
  std::uint64_t push_requests = 0;
  for (const auto& r : built.trace.requests()) {
    if (r.item < config.cutoff) ++push_requests;
  }
  EXPECT_EQ(result.overall().served_push, push_requests);
}

TEST(HybridServer, AlphaZeroFavorsPremiumClass) {
  exp::Scenario s = small_scenario();
  s.num_requests = 20000;
  const auto built = s.build();
  HybridConfig config;
  config.cutoff = 10;
  config.alpha = 0.0;  // pure priority selection
  const SimResult result = exp::run_hybrid(built, config);
  EXPECT_LE(result.mean_wait(0), result.mean_wait(2));
}

TEST(HybridServer, MeanPullQueueLenPositiveWhenLoaded) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 10;
  const SimResult result = exp::run_hybrid(built, config);
  EXPECT_GT(result.mean_pull_queue_len, 0.0);
}

TEST(HybridServer, EmptyTraceFinishesImmediately) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 10;
  HybridServer server(built.catalog, built.population, config);
  const SimResult result = server.run(workload::Trace{});
  EXPECT_EQ(result.overall().arrived, 0u);
  EXPECT_EQ(result.overall().served, 0u);
}

TEST(HybridServer, RejectsBadConfig) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = built.catalog.size() + 1;
  EXPECT_THROW(HybridServer(built.catalog, built.population, config),
               std::invalid_argument);

  config.cutoff = 10;
  config.warmup_fraction = 1.0;
  EXPECT_THROW(HybridServer(built.catalog, built.population, config),
               std::invalid_argument);

  config.warmup_fraction = 0.0;
  config.total_bandwidth = 10.0;
  config.bandwidth_fractions = {0.5, 0.5};  // population has 3 classes
  EXPECT_THROW(HybridServer(built.catalog, built.population, config),
               std::invalid_argument);
}

TEST(HybridServer, WaitsAreNonNegativeAndFinite) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 20;
  const SimResult result = exp::run_hybrid(built, config);
  for (const auto& cls : result.per_class) {
    EXPECT_GE(cls.wait.min(), 0.0);
    EXPECT_TRUE(std::isfinite(cls.wait.max()));
  }
}

TEST(HybridServer, PullPolicySwapChangesSchedule) {
  const auto built = small_scenario().build();
  HybridConfig a;
  a.cutoff = 10;
  a.pull_policy = sched::PullPolicyKind::kFcfs;
  HybridConfig b = a;
  b.pull_policy = sched::PullPolicyKind::kMrf;
  const SimResult ra = exp::run_hybrid(built, a);
  const SimResult rb = exp::run_hybrid(built, b);
  // Same workload, different service order ⇒ different mean waits.
  EXPECT_NE(ra.overall().wait.mean(), rb.overall().wait.mean());
  // But identical conservation.
  EXPECT_EQ(ra.overall().served, rb.overall().served);
}

// --- non-finite scheduler inputs -------------------------------------------

/// The constructor must refuse `config` with an invalid_argument naming
/// `field`, for NaN and both infinities written into it by `set`.
template <typename Set>
void expect_rejects_non_finite(const char* field, Set set) {
  const auto built = small_scenario().build();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    HybridConfig config;
    config.cutoff = 10;
    set(config, bad);
    try {
      HybridServer server(built.catalog, built.population, config);
      ADD_FAILURE() << field << " = " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(HybridServer, RejectsNonFiniteAlpha) {
  expect_rejects_non_finite("alpha",
                            [](HybridConfig& c, double v) { c.alpha = v; });
}

TEST(HybridServer, RejectsNonFiniteBandwidthDemand) {
  expect_rejects_non_finite("mean_bandwidth_demand", [](HybridConfig& c,
                                                         double v) {
    c.mean_bandwidth_demand = v;
  });
}

TEST(HybridServer, RejectsNonFinitePatience) {
  expect_rejects_non_finite(
      "mean_patience", [](HybridConfig& c, double v) { c.mean_patience = v; });
}

TEST(HybridServer, RejectsNonFiniteTotalBandwidth) {
  expect_rejects_non_finite("total_bandwidth", [](HybridConfig& c, double v) {
    c.total_bandwidth = v;
  });
}

TEST(HybridServer, RejectsBadLiveFailureModel) {
  const auto built = small_scenario().build();
  const auto rejects = [&](const HybridConfig& config) {
    EXPECT_THROW(HybridServer(built.catalog, built.population, config),
                 std::invalid_argument);
  };
  HybridConfig config;
  config.cutoff = 10;
  config.patience_scale = {1.0, 2.0};  // population has 3 classes
  rejects(config);
  config.patience_scale = {1.0, 0.0, 1.0};
  rejects(config);
  config.patience_scale.clear();
  config.patience_spike_factor = std::numeric_limits<double>::quiet_NaN();
  rejects(config);
  config.patience_spike_factor = 1.0;
  config.hedge_after = -1.0;
  rejects(config);
  config.hedge_after = 2.0;
  config.resilience.crash.enabled = true;
  config.resilience.crash.rate = 0.01;
  rejects(config);  // duplicates have no client to re-request after a crash
}

// --- the driver entry points ------------------------------------------------

/// Every live-only mechanism at once: scaled and spiked patience, hedges,
/// the burst-error channel with retries, and the ladder.
HybridConfig live_mix(const exp::Scenario::Built& built) {
  HybridConfig c;
  c.cutoff = 10;
  c.mean_patience = 40.0;
  c.patience_scale.assign(built.population.num_classes(), 1.0);
  c.patience_scale.front() = 2.0;
  c.patience_scale.back() = 0.5;
  c.patience_spike_factor = 0.4;
  c.patience_spike_start = built.trace.span() * 0.3;
  c.patience_spike_duration = built.trace.span() * 0.2;
  c.hedge_after = 7.5;
  c.fault.enabled = true;
  c.fault.channel.corrupt_bad = 0.5;
  c.resilience.overload.enabled = true;
  c.resilience.overload.eval_interval = 2.5;
  c.resilience.overload.capacity_ref = 16;
  return c;
}

std::string fingerprint(const SimResult& r) {
  std::ostringstream out;
  out << std::hexfloat;  // every bit of every double
  for (const auto& s : r.per_class) {
    out << s.arrived << '|' << s.served << '|' << s.abandoned << '|'
        << s.corrupted << '|' << s.retries << '|' << s.lost << '|' << s.shed
        << '|' << s.rejected << '|' << s.wait.mean() << '\n';
  }
  out << r.end_time << '|' << r.push_transmissions << '|'
      << r.pull_transmissions << '|' << r.hedges_posted << '|'
      << r.hedges_absorbed << '|' << r.unsettled << '|'
      << r.overload_transitions.size() << '|' << r.mean_pull_queue_len;
  return out.str();
}

TEST(HybridServer, RealtimeDriveMatchesTheAcceleratedRun) {
  // Handing each arrival in at its own stamp reproduces the streamed run:
  // both drivers dispatch the same events in the same order. The drain
  // instant is off every transmission, ladder and backoff grid, so the
  // strict (accelerated) and inclusive (realtime) cut agree.
  const auto built = small_scenario().build();
  const HybridConfig config = live_mix(built);
  const std::span<const workload::Request> plan = built.trace.requests();
  for (const double drain_at : {0.0, built.trace.span() * 0.6 + 0.123}) {
    HybridServer accelerated(built.catalog, built.population, config);
    const SimResult a = accelerated.run(plan, drain_at, nullptr);

    HybridServer realtime(built.catalog, built.population, config);
    realtime.start_realtime(plan.size(), nullptr);
    for (const workload::Request& r : plan) {
      if (drain_at > 0.0 && r.arrival >= drain_at) break;
      realtime.arrive(r, r.arrival);
    }
    if (drain_at > 0.0) {
      realtime.advance_to(drain_at);
      if (!realtime.done()) realtime.drain(drain_at);
    }
    realtime.advance_to(des::Simulator::kForever);
    EXPECT_TRUE(realtime.done());
    const SimResult b = realtime.finish();

    EXPECT_GT(a.hedges_posted, 0u) << "the mix must exercise hedging";
    EXPECT_EQ(fingerprint(a), fingerprint(b)) << "drain_at " << drain_at;
  }
}

TEST(HybridServer, DrainStopsAdmissionAndBroadcastsAndFlushesThePullSide) {
  struct Watcher final : RunListener {
    void on_arrival(const workload::Request&) override { ++arrivals; }
    void on_transmission(bool push, double, catalog::ItemId,
                         std::size_t) override {
      if (push && drained) push_after_drain = true;
    }
    void on_drain(double now, std::uint64_t n) override {
      drained = true;
      drain_time = now;
      skipped = n;
    }
    std::uint64_t arrivals = 0;
    std::uint64_t skipped = 0;
    double drain_time = 0.0;
    bool drained = false;
    bool push_after_drain = false;
  };
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 10;
  const double drain_at = built.trace.span() * 0.5;
  Watcher watcher;
  HybridServer server(built.catalog, built.population, config);
  const SimResult r = server.run(built.trace.requests(), drain_at, &watcher);
  const metrics::ClassStats all = r.overall();

  ASSERT_TRUE(watcher.drained);
  EXPECT_EQ(watcher.drain_time, drain_at);
  EXPECT_EQ(watcher.arrivals, all.arrived);
  EXPECT_EQ(watcher.arrivals + watcher.skipped, built.trace.size());
  EXPECT_FALSE(watcher.push_after_drain) << "the flush broadcasts nothing";
  // Nothing was lost: the pull side settled, parked push waiters did not.
  EXPECT_GT(r.unsettled, 0u);
  EXPECT_EQ(all.served + r.unsettled, all.arrived);
}

// HybridConfig::tail_quantiles: off, the four P² sketches read count 0 and
// every other output stays bit-identical, on every layout, controller and
// arrival source.
struct SketchCase {
  const char* name;
  exp::Scenario scenario;
  HybridConfig config;
  bool closed_loop = false;
};

std::vector<SketchCase> sketch_cases() {
  std::vector<SketchCase> cases;
  exp::Scenario paper;  // §5.1
  paper.num_requests = 20000;
  HybridConfig base;
  base.cutoff = 40;
  cases.push_back({"paper-5.1", paper, base});

  exp::Scenario flash = paper;
  flash.preset = scenario::Preset::kFlashcrowd;
  HybridConfig chaos;
  chaos.cutoff = 30;
  chaos.mean_patience = 100.0;
  chaos.fault.enabled = true;
  chaos.fault.channel = fault::ChannelConfig{0.05, 0.30, 0.0, 0.5};
  chaos.fault.retry.max_retries = 3;
  chaos.fault.queue_capacity = 200;
  chaos.fault.shed_policy = fault::ShedPolicy::kDropLowestPriority;
  chaos.resilience.crash.enabled = true;
  chaos.resilience.crash.rate = 0.001;
  chaos.resilience.crash.recovery = resilience::RecoveryMode::kWarm;
  chaos.resilience.overload.enabled = true;
  cases.push_back({"chaos-mix", flash, chaos});

  HybridConfig loop = base;
  loop.cutoff = 15;
  cases.push_back({"closed-loop", paper, loop, /*closed_loop=*/true});

  HybridConfig channels = base;
  channels.pull_channels = 2;
  cases.push_back({"pull-channels-2", paper, channels});

  HybridConfig reopt = base;
  reopt.reoptimize_interval = 300.0;
  cases.push_back({"reoptimize", paper, reopt});
  return cases;
}

SimResult run_sketch_case(const SketchCase& c, bool tail_quantiles) {
  const auto built = c.scenario.build();
  HybridConfig config = c.config;
  config.tail_quantiles = tail_quantiles;
  HybridServer server(built.catalog, built.population, config);
  if (c.closed_loop) {
    ClosedLoop loop;
    loop.clients = 40;
    loop.horizon = 4000.0;
    return server.run(loop);
  }
  return server.run(built.trace);
}

TEST(HybridServer, TailQuantilesOffChangesOnlyTheSketches) {
  for (const SketchCase& c : sketch_cases()) {
    const SimResult on = run_sketch_case(c, true);
    const SimResult off = run_sketch_case(c, false);
    EXPECT_EQ(exp::serialize_result(on), exp::serialize_result(off))
        << c.name;
    ASSERT_EQ(on.per_class.size(), off.per_class.size()) << c.name;
    std::uint64_t served = 0;
    for (std::size_t cls = 0; cls < on.per_class.size(); ++cls) {
      const metrics::ClassStats& a = on.per_class[cls];
      const metrics::ClassStats& b = off.per_class[cls];
      served += a.served;
      for (const metrics::P2Quantile* sketch :
           {&a.wait_p50, &a.wait_p95, &a.wait_p99}) {
        EXPECT_EQ(sketch->count(), a.served) << c.name << " class " << cls;
      }
      EXPECT_EQ(a.gap_p99.count(), a.gap.count()) << c.name << " class " << cls;
      for (const metrics::P2Quantile* sketch :
           {&b.wait_p50, &b.wait_p95, &b.wait_p99, &b.gap_p99}) {
        EXPECT_EQ(sketch->count(), 0u) << c.name << " class " << cls;
      }
    }
    EXPECT_GT(served, 0u) << c.name;
  }
}

#if defined(PUSHPULL_CLI_PATH)

// These used to segfault (`--demand inf`: rng::poisson halves an infinite
// mean forever), run on NaN scores (`--alpha nan`), die mid-run
// (`--patience nan`) or be silently ignored (`--bandwidth nan`).
TEST(HybridServerCli, NonFiniteSchedulerInputsExitOneNamingTheField) {
  const struct {
    const char* args;
    const char* field;
  } cases[] = {
      {"simulate --requests 300 --demand inf", "mean_bandwidth_demand"},
      {"loadtest --accelerated --duration 5 --demand inf",
       "mean_bandwidth_demand"},
      {"simulate --requests 300 --alpha nan", "alpha"},
      {"simulate --requests 300 --patience nan", "mean_patience"},
      {"simulate --requests 300 --bandwidth nan", "total_bandwidth"},
  };
  const std::string out = "hybrid_server_cli_nonfinite.txt";
  for (const auto& c : cases) {
    const std::string cmd = std::string(PUSHPULL_CLI_PATH) + " " + c.args +
                            " > " + out + " 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 1) << cmd;
    std::ifstream in(out);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find(c.field), std::string::npos)
        << cmd << "\n" << text.str();
  }
  std::remove(out.c_str());
}

#endif  // PUSHPULL_CLI_PATH

}  // namespace
}  // namespace pushpull::core
