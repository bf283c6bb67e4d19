// Full-precision pins of the hybrid server's re-optimizing controller,
// closed-loop arrival source and dedicated channel layout.
//
// A grid of configurations covering every caller of these three engine
// configurations (the ext_adaptive_drift epochs, the flash crowd of
// AdaptiveServer's static-cutoff gate, the ext_closed_loop and
// ext_multichannel rows, the edge cutoffs and empty traces) is run and
// digested into text: every ClassStats Welford and P² field as a hex
// float, every counter, the transmission counts, the end time, the
// re-optimization count and cutoff history, the per-channel utilization
// and the closed-loop throughput. The digest and the stdout of `pushpull
// adaptive`, `multichannel` and `closedloop` are byte-compared against
// tests/golden/servers/. On a mismatch the actual bytes are written next
// to the test binary (<golden>.actual) for diffing.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.hpp"
#include "catalog/length_model.hpp"
#include "core/hybrid_server.hpp"
#include "exp/scenario.hpp"
#include "scenario/presets.hpp"
#include "workload/drifting_generator.hpp"
#include "workload/trace.hpp"

namespace pushpull {
namespace {

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void put_welford(std::ostringstream& out, const char* name,
                 const metrics::Welford& w) {
  out << ' ' << name << '=' << w.count() << ',' << hex(w.mean()) << ','
      << hex(w.m2()) << ',' << hex(w.sum()) << ',' << hex(w.min()) << ','
      << hex(w.max());
}

void put_p2(std::ostringstream& out, const char* name,
            const metrics::P2Quantile& q) {
  out << ' ' << name << '=' << q.count() << ',' << hex(q.value());
}

/// One line per class under the case's header line.
void put_classes(std::ostringstream& out,
                 const std::vector<metrics::ClassStats>& per_class) {
  for (std::size_t c = 0; c < per_class.size(); ++c) {
    const metrics::ClassStats& s = per_class[c];
    out << "  class " << c;
    put_welford(out, "wait", s.wait);
    put_p2(out, "p50", s.wait_p50);
    put_p2(out, "p95", s.wait_p95);
    put_p2(out, "p99", s.wait_p99);
    put_welford(out, "gap", s.gap);
    put_p2(out, "gap99", s.gap_p99);
    out << " arrived=" << s.arrived << " served=" << s.served
        << " push=" << s.served_push << " pull=" << s.served_pull
        << " blocked=" << s.blocked << " abandoned=" << s.abandoned
        << " corrupted=" << s.corrupted << " retries=" << s.retries
        << " shed=" << s.shed << " lost=" << s.lost
        << " rejected=" << s.rejected << " stormed=" << s.stormed << '\n';
  }
}

// --- worlds ---------------------------------------------------------------

struct World {
  catalog::Catalog catalog;
  workload::ClientPopulation population;
  workload::Trace trace;
};

/// The ext_adaptive_drift world: D = 100, theta 1.0, rate 5, shift 33.
World drift_world(double epoch, std::size_t requests, std::uint64_t seed) {
  catalog::Catalog cat(100, 1.0, catalog::LengthModel::paper_default(), seed);
  auto pop = workload::ClientPopulation::paper_default();
  workload::DriftingGenerator gen(cat, pop, 5.0, epoch, 33, seed);
  workload::Trace trace = workload::Trace::record(gen, requests);
  return World{std::move(cat), std::move(pop), std::move(trace)};
}

World scenario_world(const exp::Scenario& s) {
  exp::Scenario::Built built = s.build();
  return World{std::move(built.catalog), std::move(built.population),
               std::move(built.trace)};
}

// --- adaptive -------------------------------------------------------------

struct AdaptiveCase {
  std::size_t cutoff;
  double alpha;
  double interval;
  double half_life;
};

void digest_adaptive(std::ostringstream& out, const std::string& name,
                     const World& world, const workload::Trace& trace,
                     const AdaptiveCase& c) {
  core::HybridConfig config;
  config.cutoff = c.cutoff;
  config.alpha = c.alpha;
  config.reoptimize_interval = c.interval;
  config.estimator_half_life = c.half_life;
  core::HybridServer server(world.catalog, world.population, config);
  const core::SimResult r = server.run(trace);
  out << "adaptive/" << name << " end=" << hex(r.end_time)
      << " push_tx=" << r.push_transmissions
      << " pull_tx=" << r.pull_transmissions
      << " reopts=" << r.reoptimizations << " history=";
  for (const auto& [t, k] : r.cutoff_history) out << hex(t) << ':' << k << ';';
  out << '\n';
  put_classes(out, r.per_class);
}

// --- closed loop ----------------------------------------------------------

struct ClosedCase {
  std::size_t clients;
  double think_rate;
  std::size_t cutoff;
  double alpha;
  double horizon;
  std::uint64_t seed;
};

/// The closed-loop header omits the end time: a closed loop stops at its
/// horizon, so its throughput over the measured window is the figure
/// reported, not the instant the last request settled.
void digest_closed(std::ostringstream& out, const std::string& name,
                   const catalog::Catalog& cat,
                   const workload::ClientPopulation& pop,
                   const ClosedCase& c) {
  core::HybridConfig config;
  config.cutoff = c.cutoff;
  config.alpha = c.alpha;
  config.warmup_fraction = 0.1;
  config.seed = c.seed;
  core::ClosedLoop loop;
  loop.clients = c.clients;
  loop.think_rate = c.think_rate;
  loop.horizon = c.horizon;
  core::HybridServer server(cat, pop, config);
  const core::SimResult r = server.run(loop);
  out << "closed/" << name << " push_tx=" << r.push_transmissions
      << " pull_tx=" << r.pull_transmissions
      << " throughput=" << hex(r.throughput) << '\n';
  put_classes(out, r.per_class);
}

// --- multichannel ---------------------------------------------------------

void digest_multi(std::ostringstream& out, const std::string& name,
                  const World& world, const workload::Trace& trace,
                  std::size_t cutoff, double alpha, std::size_t channels) {
  core::HybridConfig config;
  config.cutoff = cutoff;
  config.alpha = alpha;
  config.pull_channels = channels;
  core::HybridServer server(world.catalog, world.population, config);
  const core::SimResult r = server.run(trace);
  out << "multi/" << name << " end=" << hex(r.end_time)
      << " push_tx=" << r.push_transmissions
      << " pull_tx=" << r.pull_transmissions << " util=";
  for (std::size_t c = 0; c < r.channel_utilization.size(); ++c) {
    out << (c > 0 ? "," : "") << hex(r.channel_utilization[c]);
  }
  out << '\n';
  put_classes(out, r.per_class);
}

// --- the grid -------------------------------------------------------------

std::string server_digest() {
  std::ostringstream out;

  // Adaptive: the ext_adaptive_drift epochs at its configuration.
  for (const double epoch : {1e9, 2000.0, 800.0, 400.0, 200.0}) {
    const World w = drift_world(epoch, 4000, 20050614);
    digest_adaptive(out, "drift-" + hex(epoch), w, w.trace,
                    {30, 0.5, 100.0, 150.0});
  }
  // The flash crowd of AdaptiveServer.BeatsStaticCutoffUnderFlashcrowd.
  {
    exp::Scenario s;
    s.theta = 1.0;
    s.num_requests = 10000;
    s.seed = 20050614;
    s.preset = scenario::Preset::kFlashcrowd;
    const World w = scenario_world(s);
    digest_adaptive(out, "flashcrowd", w, w.trace, {40, 0.5, 200.0, 300.0});
  }
  // The §5.1 stationary scenario, a pure-pull and an all-push start, the
  // `pushpull adaptive` defaults, and an empty trace.
  {
    exp::Scenario s;
    s.theta = 1.0;
    s.num_requests = 5000;
    const World w = scenario_world(s);
    digest_adaptive(out, "stationary", w, w.trace, {30, 0.5, 300.0, 400.0});
    digest_adaptive(out, "alpha0", w, w.trace, {30, 0.0, 300.0, 400.0});
  }
  {
    const World w = drift_world(500.0, 4000, 99);
    digest_adaptive(out, "pure-pull", w, w.trace, {0, 0.5, 300.0, 400.0});
    digest_adaptive(out, "all-push", w, w.trace,
                    {w.catalog.size(), 0.5, 300.0, 400.0});
    digest_adaptive(out, "fast", w, w.trace, {30, 0.5, 50.0, 80.0});
    digest_adaptive(out, "empty", w, workload::Trace{},
                    {30, 0.5, 300.0, 400.0});
  }

  // Closed loop: the ext_closed_loop rows (shortened horizon), then small
  // and large populations at the edge cutoffs.
  {
    const catalog::Catalog cat(100, 0.60,
                               catalog::LengthModel::paper_default(),
                               20050614);
    const auto pop = workload::ClientPopulation::paper_default();
    for (const std::size_t clients :
         {std::size_t{10}, std::size_t{25}, std::size_t{50}, std::size_t{100},
          std::size_t{200}, std::size_t{400}}) {
      digest_closed(out, "ext-" + std::to_string(clients), cat, pop,
                    {clients, 0.05, 15, 0.25, 4000.0, 20050614});
    }
  }
  {
    const catalog::Catalog cat(50, 0.6, catalog::LengthModel::paper_default(),
                               7);
    const auto pop = workload::ClientPopulation::paper_default();
    digest_closed(out, "k0-5", cat, pop, {5, 0.05, 0, 0.25, 3000.0, 1});
    digest_closed(out, "k0-40", cat, pop, {40, 0.05, 0, 0.25, 3000.0, 1});
    digest_closed(out, "kD-40", cat, pop, {40, 0.05, 50, 0.25, 3000.0, 1});
    digest_closed(out, "kD-300", cat, pop, {300, 0.05, 50, 0.0, 3000.0, 2});
    digest_closed(out, "k15-300", cat, pop, {300, 0.2, 15, 0.0, 3000.0, 3});
  }

  // Multichannel: K in {0, 10, 20, D} x m in {1..4} on a D = 50 scenario,
  // the ext_multichannel rows, and an empty trace.
  {
    exp::Scenario s;
    s.num_items = 50;
    s.num_requests = 3000;
    const World w = scenario_world(s);
    for (const std::size_t cutoff :
         {std::size_t{0}, std::size_t{10}, std::size_t{20}, std::size_t{50}}) {
      for (std::size_t m = 1; m <= 4; ++m) {
        std::string name = "k";
        name += std::to_string(cutoff);
        name += "-m";
        name += std::to_string(m);
        digest_multi(out, name, w, w.trace, cutoff, 0.5, m);
      }
    }
    digest_multi(out, "empty", w, workload::Trace{}, 10, 0.5, 1);
  }
  {
    exp::Scenario s;
    s.theta = 0.60;
    s.num_requests = 6000;
    s.seed = 20050614;
    const World w = scenario_world(s);
    for (std::size_t m = 1; m <= 4; ++m) {
      digest_multi(out, "ext-m" + std::to_string(m), w, w.trace, 20, 0.25, m);
    }
  }
  return out.str();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Byte-compares `actual` with the golden file; on a mismatch writes the
/// actual bytes to <name>.actual in the working directory.
void expect_golden(const std::string& actual, const std::string& name) {
  const std::string path =
      std::string(PUSHPULL_GOLDEN_DIR) + "/servers/" + name;
  const std::string expected = slurp(path);
  if (actual != expected) {
    std::ofstream(name + ".actual", std::ios::binary) << actual;
  }
  ASSERT_FALSE(expected.empty()) << "missing golden " << path;
  EXPECT_TRUE(actual == expected)
      << name << " drifted from its golden; see " << name << ".actual";
}

TEST(ServerGoldens, DigestIsByteIdentical) {
  expect_golden(server_digest(), "digest.txt");
}

void expect_cli_golden(const std::string& args, const std::string& name) {
  const std::string tmp = "server_goldens_" + name;
  const std::string cmd =
      std::string(PUSHPULL_CLI_PATH) + " " + args + " > " + tmp;
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  expect_golden(slurp(tmp), name);
  std::remove(tmp.c_str());
}

TEST(ServerGoldens, AdaptiveCliIsByteIdentical) {
  expect_cli_golden("adaptive", "cli_adaptive_default.txt");
  expect_cli_golden(
      "adaptive --requests 6000 --seed 3 --epoch 300 --shift 20 --cutoff 10 "
      "--alpha 0.25 --interval 120 --half-life 90 --items 80",
      "cli_adaptive_custom.txt");
}

TEST(ServerGoldens, MultichannelCliIsByteIdentical) {
  expect_cli_golden("multichannel", "cli_multichannel_default.txt");
  expect_cli_golden(
      "multichannel --requests 6000 --seed 5 --cutoff 15 --alpha 0.25 "
      "--channels 3 --theta 0.8 --rate 8",
      "cli_multichannel_custom.txt");
}

TEST(ServerGoldens, ClosedloopCliIsByteIdentical) {
  expect_cli_golden("closedloop", "cli_closedloop_default.txt");
  expect_cli_golden(
      "closedloop --clients 120 --think-rate 0.1 --cutoff 40 --alpha 0.5 "
      "--horizon 5000 --seed 4 --items 60",
      "cli_closedloop_custom.txt");
}

// --- flags the closed loop, the drift run and the model would ignore -----

/// The command exits 1 and prints `needle`. The capture file is named
/// after the whole command, so tests that ctest runs in parallel never
/// share one.
void expect_error(const std::string& args, const std::string& needle) {
  std::string out = "server_goldens_rejected_" + args + ".txt";
  for (char& c : out) {
    if (c == ' ' || c == '/') c = '_';
  }
  const std::string cmd =
      std::string(PUSHPULL_CLI_PATH) + " " + args + " > " + out + " 2>&1";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << cmd;
  EXPECT_EQ(WEXITSTATUS(status), 1) << cmd;
  EXPECT_NE(slurp(out).find(needle), std::string::npos)
      << cmd << "\n" << slurp(out);
  std::remove(out.c_str());
}

/// The command exits 1 with the parser's `unknown option --<flag>` error.
void expect_rejected(const std::string& args, const std::string& flag) {
  expect_error(args, "unknown option --" + flag + " (");
}

TEST(ServerCli, ClosedloopRejectsScenario) {
  expect_rejected("closedloop --horizon 100 --scenario flashcrowd",
                  "scenario");
}

TEST(ServerCli, ClosedloopRejectsScenarioIntensity) {
  expect_rejected("closedloop --horizon 100 --scenario-intensity 3",
                  "scenario-intensity");
}

TEST(ServerCli, ClosedloopRejectsRequests) {
  expect_rejected("closedloop --horizon 100 --requests 7", "requests");
}

TEST(ServerCli, ClosedloopRejectsRate) {
  expect_rejected("closedloop --horizon 100 --rate 9", "rate");
}

TEST(ServerCli, AdaptiveRejectsScenario) {
  expect_rejected("adaptive --requests 100 --scenario flashcrowd", "scenario");
}

TEST(ServerCli, AdaptiveRejectsScenarioIntensity) {
  expect_rejected("adaptive --requests 100 --scenario-intensity 3",
                  "scenario-intensity");
}

// `model` is analytic over the catalog and population and records no trace.

TEST(ServerCli, ModelRejectsScenario) {
  expect_rejected("model --scenario flashcrowd", "scenario");
}

TEST(ServerCli, ModelRejectsScenarioIntensity) {
  expect_rejected("model --scenario-intensity 3", "scenario-intensity");
}

TEST(ServerCli, ModelRejectsRequests) {
  expect_rejected("model --requests 7", "requests");
}

// Each command reads only the flags that reach its run; these were all
// accepted and changed nothing.

TEST(ServerCli, SimulateRejectsFlagsItWouldIgnore) {
  for (const std::string flag :
       {"fault-p-gb 0.9", "fault-retries 9", "shed priority",
        "ladder-capacity 2", "crash-downtime 5", "recovery warm", "jobs 3",
        "trace-cap 5", "trace-categories push", "scenario-intensity 2"}) {
    expect_rejected("simulate --requests 3000 --" + flag,
                    flag.substr(0, flag.find(' ')));
  }
  expect_rejected(
      "simulate --requests 3000 --crash-rate 0.01 --recovery cold "
      "--snapshot-interval 7",
      "snapshot-interval");
}

TEST(ServerCli, RejectsAValueOnASwitchAndAStrayArgument) {
  expect_error("simulate --requests 3000 --ladder yes",
               "--ladder is a switch and takes no value, got 'yes'");
  expect_error("simulate --fault 0",
               "--fault is a switch and takes no value, got '0'");
  expect_error("simulate --requests 3000 extra", "unexpected argument 'extra'");
  expect_error("replay rec.svj other.svj", "unexpected argument 'other.svj'");
}

TEST(ServerCli, OptimizeAndReplicateRejectFlagsTheyWouldIgnore) {
  expect_rejected("optimize --analytic --scenario flashcrowd", "scenario");
  expect_rejected("optimize --analytic --requests 7", "requests");
  expect_rejected("optimize --requests 2000 --jobs 3", "jobs");
  expect_rejected("optimize --requests 2000 --trace-cap 5", "trace-cap");
  expect_rejected("replicate --requests 2000 --reps 2 --trace-cap 5",
                  "trace-cap");
}

TEST(ServerCli, JobsIsReadOnlyWhereWorkFansOut) {
  for (const std::string command :
       {"model", "multichannel --requests 2000", "uplink --requests 2000",
        "adaptive --requests 2000", "closedloop --horizon 100"}) {
    expect_rejected(command + " --jobs 3", "jobs");
  }
}

TEST(ServerCli, ChaosReadsASpikeOnlyAsAWhole) {
  for (const std::string flag :
       {"spike-start 100", "spike-duration 100", "spike-factor 3"}) {
    expect_rejected("chaos --requests 2000 --reps 2 --" + flag,
                    flag.substr(0, flag.find(' ')));
  }
}

TEST(ServerCli, TraceReadsTheServerFlagsOnlyWithTrace) {
  expect_rejected("trace --out t.csv --requests 2000 --cutoff 5", "cutoff");
  expect_rejected("trace --out t.csv --requests 2000 --fault", "fault");
}

TEST(ServerCli, LoadtestRejectsFlagsItWouldIgnore) {
  for (const std::string flag :
       {"cutoff 5", "items 50", "seed 9", "target-qps 9", "mean-deadline 3",
        "fault"}) {
    expect_rejected("loadtest --accelerated --from-trace rec.svj --" + flag,
                    flag.substr(0, flag.find(' ')));
  }
  for (const std::string flag :
       {"fault-p-gb 0.9", "deadline-spike-factor 0.2",
        "deadline-spike-start 3", "sync-every 2"}) {
    expect_rejected("loadtest --accelerated --duration 20 --" + flag,
                    flag.substr(0, flag.find(' ')));
  }
}

TEST(ServerCli, ServeRejectsFlagsItWouldIgnore) {
  for (const std::string flag :
       {"accelerated", "time-scale 5", "pacers 3", "queue-capacity 3",
        "ladder", "fault-p-gb 0.9", "shed tail", "deadline-spike-start 3"}) {
    expect_rejected("serve --chaos --reps 1 --duration 20 --" + flag,
                    flag.substr(0, flag.find(' ')));
  }
  expect_rejected("serve --accelerated", "accelerated");
}

TEST(ServerCli, AdaptiveValidatesItsScenario) {
  expect_error("adaptive --requests 0", "Scenario: num_requests");
  expect_error("adaptive --items 0", "Scenario: num_items");
}

// A rejected flag fails before the run opens any file.
TEST(ServerCli, RejectionComesBeforeAnyFileIsWritten) {
  const struct {
    std::string args;
    std::string file;
  } cases[] = {
      {"replicate --progress nowork_p.jsonl --bogus 1", "nowork_p.jsonl"},
      {"simulate --report nowork_r.md --bogus 1", "nowork_r.md"},
      {"loadtest --accelerated --record nowork_x.svj --bogus 1",
       "nowork_x.svj"},
  };
  for (const auto& c : cases) {
    std::remove(c.file.c_str());
    expect_rejected(c.args, "bogus");
    EXPECT_FALSE(std::ifstream(c.file).good()) << c.args;
  }
}

}  // namespace
}  // namespace pushpull
