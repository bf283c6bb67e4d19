// Tests for the scenario engine: the environment timeline (time-warp,
// rotation, mobility pressure), named presets, the RNG-free trace shaper
// with its conservation guarantees, the multicell runner, and the chaos
// harness's determinism under an active scenario.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.hpp"
#include "catalog/length_model.hpp"
#include "exp/chaos.hpp"
#include "exp/scenario.hpp"
#include "resilience/invariants.hpp"
#include "scenario/multicell.hpp"
#include "scenario/presets.hpp"
#include "scenario/shaper.hpp"
#include "scenario/timeline.hpp"
#include "workload/population.hpp"
#include "workload/request.hpp"
#include "workload/trace.hpp"

namespace pushpull {
namespace {

using scenario::Preset;
using scenario::Segment;
using scenario::Timeline;

// --- Timeline -------------------------------------------------------------

TEST(Timeline, EmptyTimelineIsIdentity) {
  const Timeline t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.horizon(), 0.0);
  EXPECT_DOUBLE_EQ(t.multiplier(5.0), 1.0);
  EXPECT_DOUBLE_EQ(t.cumulative(42.5), 42.5);
  EXPECT_DOUBLE_EQ(t.inverse_cumulative(42.5), 42.5);
  EXPECT_EQ(t.rotation_at(100.0), 0u);
  EXPECT_DOUBLE_EQ(t.handoff_prob_at(100.0), 0.0);
}

TEST(Timeline, RejectsMalformedSegments) {
  EXPECT_THROW(Timeline({Segment{0.0, 1.0, 1.0, 0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(Timeline({Segment{-5.0, 1.0, 1.0, 0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(Timeline({Segment{10.0, 0.0, 1.0, 0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(Timeline({Segment{10.0, 1.0, -0.5, 0, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(Timeline({Segment{10.0, 1.0, 1.0, 0, 1.5}}),
               std::invalid_argument);
  EXPECT_THROW(Timeline({Segment{10.0, 1.0, 1.0, 0, -0.1}}),
               std::invalid_argument);
  // The diagnostic names the offending segment.
  try {
    Timeline({Segment{10.0, 1.0, 1.0, 0, 0.0}, Segment{5.0, 0.0, 1.0, 0, 0.0}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("segment 1"), std::string::npos);
  }
}

TEST(Timeline, MultiplierIsPiecewiseWithInclusiveLaterBoundaries) {
  const Timeline t({Segment{10.0, 2.0, 2.0, 0, 0.0},
                    Segment{10.0, 0.5, 0.5, 3, 0.25}});
  EXPECT_DOUBLE_EQ(t.horizon(), 20.0);
  EXPECT_DOUBLE_EQ(t.multiplier(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(t.multiplier(0.0), 2.0);
  EXPECT_DOUBLE_EQ(t.multiplier(9.999), 2.0);
  // At exactly t == boundary the *later* segment is in force, the
  // DriftingGenerator epoch convention.
  EXPECT_DOUBLE_EQ(t.multiplier(10.0), 0.5);
  EXPECT_EQ(t.rotation_at(10.0), 3u);
  EXPECT_DOUBLE_EQ(t.handoff_prob_at(10.0), 0.25);
  EXPECT_DOUBLE_EQ(t.multiplier(19.9), 0.5);
  // Past the horizon the rate and mobility revert, the rotation persists.
  EXPECT_DOUBLE_EQ(t.multiplier(20.0), 1.0);
  EXPECT_DOUBLE_EQ(t.handoff_prob_at(20.0), 0.0);
  EXPECT_EQ(t.rotation_at(20.0), 3u);
  EXPECT_EQ(t.rotation_at(-1.0), 0u);
}

TEST(Timeline, CumulativeIntegratesFlatsAndRamps) {
  const Timeline t({Segment{10.0, 1.0, 3.0, 0, 0.0},
                    Segment{10.0, 2.0, 2.0, 0, 0.0}});
  EXPECT_DOUBLE_EQ(t.cumulative(0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.cumulative(-7.0), -7.0);
  // Ramp 1 -> 3 over 10: trapezoid — Λ(5) = 5·(1 + 0.5·0.2·5) = 7.5.
  EXPECT_DOUBLE_EQ(t.cumulative(5.0), 7.5);
  EXPECT_DOUBLE_EQ(t.cumulative(10.0), 20.0);
  EXPECT_DOUBLE_EQ(t.cumulative(15.0), 30.0);
  // Slope returns to 1 past the horizon.
  EXPECT_DOUBLE_EQ(t.cumulative(25.0), 45.0);
}

TEST(Timeline, InverseCumulativeRoundTrips) {
  const Timeline t({Segment{10.0, 0.6, 0.6, 0, 0.0},
                    Segment{5.0, 0.6, 4.0, 0, 0.0},
                    Segment{8.0, 4.0, 0.3, 0, 0.0},
                    Segment{7.0, 1.0, 1.0, 0, 0.0}});
  double last = -1.0;
  for (double u = 0.0; u <= 60.0; u += 0.37) {
    const double warped = t.inverse_cumulative(u);
    EXPECT_NEAR(t.cumulative(warped), u, 1e-9) << "u=" << u;
    EXPECT_GT(warped, last) << "warp must be strictly increasing at u=" << u;
    last = warped;
  }
}

// --- Presets --------------------------------------------------------------

TEST(Presets, ParseRoundTripsEveryName) {
  for (Preset p : {Preset::kNone, Preset::kDiurnal, Preset::kFlashcrowd,
                   Preset::kCommuter, Preset::kKitchenSink}) {
    EXPECT_EQ(scenario::parse_preset(std::string(scenario::to_string(p))), p);
  }
  try {
    (void)scenario::parse_preset("rush-hour");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rush-hour"), std::string::npos);
    EXPECT_NE(what.find("kitchen-sink"), std::string::npos);
  }
}

TEST(Presets, MakeTimelineCoversTheHorizon) {
  for (Preset p : {Preset::kDiurnal, Preset::kFlashcrowd, Preset::kCommuter,
                   Preset::kKitchenSink}) {
    const Timeline t = scenario::make_timeline(p, 1.0, 1000.0, 100);
    EXPECT_FALSE(t.empty()) << scenario::to_string(p);
    EXPECT_NEAR(t.horizon(), 1000.0, 1e-6) << scenario::to_string(p);
  }
  EXPECT_TRUE(scenario::make_timeline(Preset::kNone, 1.0, 1000.0, 100).empty());
}

TEST(Presets, MakeTimelineValidatesArguments) {
  EXPECT_THROW(scenario::make_timeline(Preset::kDiurnal, 0.0, 1000.0, 100),
               std::invalid_argument);
  EXPECT_THROW(scenario::make_timeline(Preset::kDiurnal, 1.0, 0.0, 100),
               std::invalid_argument);
  EXPECT_THROW(scenario::make_timeline(Preset::kDiurnal, 1.0, 1000.0, 0),
               std::invalid_argument);
  // Extreme intensity must still build a valid (floored/clamped) timeline.
  const Timeline t =
      scenario::make_timeline(Preset::kKitchenSink, 50.0, 1000.0, 100);
  for (const auto& s : t.segments()) {
    EXPECT_GT(s.rate_begin, 0.0);
    EXPECT_GT(s.rate_end, 0.0);
    EXPECT_LE(s.handoff_prob, 0.9);
  }
}

// --- Shaper ---------------------------------------------------------------

workload::Trace synthetic_trace(std::size_t n, std::size_t num_items,
                                std::size_t num_classes) {
  std::vector<workload::Request> reqs;
  reqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workload::Request r;
    r.id = static_cast<workload::RequestId>(i);
    r.item = static_cast<catalog::ItemId>((i * 7) % num_items);
    r.cls = static_cast<workload::ClassId>(i % num_classes);
    r.arrival = 0.25 * static_cast<double>(i + 1);
    reqs.push_back(r);
  }
  return workload::Trace(std::move(reqs));
}

TEST(Shaper, HandoffDrawIsDeterministicAndRespectsEdges) {
  for (workload::RequestId id = 0; id < 64; ++id) {
    EXPECT_FALSE(scenario::handoff_draw(42, id, 0.0).migrates);
    EXPECT_TRUE(scenario::handoff_draw(42, id, 1.0).migrates);
    const auto a = scenario::handoff_draw(42, id, 0.5);
    const auto b = scenario::handoff_draw(42, id, 0.5);
    EXPECT_EQ(a.migrates, b.migrates);
    EXPECT_EQ(a.lost, b.lost);
    EXPECT_DOUBLE_EQ(a.delay, b.delay);
    if (a.migrates && !a.lost) {
      EXPECT_GE(a.delay, scenario::kHandoffDelayMin);
      EXPECT_LT(a.delay, scenario::kHandoffDelayMax);
    }
  }
}

TEST(Shaper, HomeAndTargetCellsAreInRangeAndDistinct) {
  for (workload::RequestId id = 0; id < 200; ++id) {
    const std::size_t home = scenario::home_cell(9, id, 3);
    ASSERT_LT(home, 3u);
    const std::size_t target = scenario::handoff_target(9, id, home, 3);
    ASSERT_LT(target, 3u);
    EXPECT_NE(target, home);
  }
  EXPECT_EQ(scenario::home_cell(9, 5, 1), 0u);
}

TEST(Shaper, EmptyTimelineIsTheIdentity) {
  const auto base = synthetic_trace(500, 50, 3);
  const auto shaped = scenario::shape_trace(base, Timeline{}, 1, 50, 3);
  EXPECT_FALSE(shaped.summary.active);
  EXPECT_EQ(shaped.summary.total_lost(), 0u);
  EXPECT_TRUE(shaped.home.empty());
  ASSERT_EQ(shaped.trace.requests().size(), base.requests().size());
  for (std::size_t i = 0; i < base.requests().size(); ++i) {
    EXPECT_EQ(shaped.trace.requests()[i].id, base.requests()[i].id);
    EXPECT_EQ(shaped.trace.requests()[i].item, base.requests()[i].item);
    EXPECT_DOUBLE_EQ(shaped.trace.requests()[i].arrival,
                     base.requests()[i].arrival);
  }
}

TEST(Shaper, PureRotationMovesItemsNotArrivals) {
  const auto base = synthetic_trace(400, 50, 3);
  // Rate 1 everywhere → identity warp; rotation 7 over the whole span.
  const Timeline t({Segment{200.0, 1.0, 1.0, 7, 0.0}});
  const auto shaped = scenario::shape_trace(base, t, 1, 50, 3);
  EXPECT_TRUE(shaped.summary.active);
  EXPECT_EQ(shaped.summary.rotated, 400u);
  EXPECT_EQ(shaped.summary.rehomed, 0u);
  EXPECT_EQ(shaped.summary.total_lost(), 0u);
  ASSERT_EQ(shaped.trace.requests().size(), 400u);
  for (std::size_t i = 0; i < 400; ++i) {
    EXPECT_EQ(shaped.trace.requests()[i].item,
              (base.requests()[i].item + 7) % 50);
    EXPECT_DOUBLE_EQ(shaped.trace.requests()[i].arrival,
                     base.requests()[i].arrival);
  }
}

TEST(Shaper, ConservationHoldsPerClassUnderMobility) {
  const auto base = synthetic_trace(3000, 100, 3);
  const Timeline t = scenario::make_timeline(Preset::kKitchenSink, 1.5,
                                             base.span(), 100);
  const auto shaped = scenario::shape_trace(base, t, 77, 100, 3);
  EXPECT_TRUE(shaped.summary.active);
  ASSERT_EQ(shaped.summary.base_per_class.size(), 3u);
  std::uint64_t offered = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(shaped.summary.base_per_class[c],
              shaped.summary.offered_per_class[c] +
                  shaped.summary.handoff_lost[c])
        << "class " << c;
    offered += shaped.summary.offered_per_class[c];
  }
  EXPECT_EQ(shaped.summary.total_base(), 3000u);
  EXPECT_EQ(offered, shaped.trace.requests().size());
  EXPECT_GT(shaped.summary.total_lost(), 0u)
      << "kitchen-sink at intensity 1.5 should lose some handoffs";
  // Shaped arrivals are sorted and every item is in range.
  double last = -1.0;
  for (const auto& r : shaped.trace.requests()) {
    EXPECT_GE(r.arrival, last);
    last = r.arrival;
    EXPECT_LT(r.item, 100u);
  }
}

TEST(Shaper, SameSeedSameTrace) {
  const auto base = synthetic_trace(2000, 100, 3);
  const Timeline t = scenario::make_timeline(Preset::kCommuter, 1.0,
                                             base.span(), 100);
  const auto a = scenario::shape_trace(base, t, 5, 100, 3, 2);
  const auto b = scenario::shape_trace(base, t, 5, 100, 3, 2);
  ASSERT_EQ(a.trace.requests().size(), b.trace.requests().size());
  for (std::size_t i = 0; i < a.trace.requests().size(); ++i) {
    EXPECT_EQ(a.trace.requests()[i].id, b.trace.requests()[i].id);
    EXPECT_DOUBLE_EQ(a.trace.requests()[i].arrival,
                     b.trace.requests()[i].arrival);
  }
  EXPECT_EQ(a.home, b.home);
  EXPECT_EQ(a.cell, b.cell);
}

TEST(Shaper, RejectsOutOfRangeArguments) {
  const auto base = synthetic_trace(10, 5, 2);
  EXPECT_THROW(scenario::shape_trace(base, Timeline{}, 1, 0, 2),
               std::invalid_argument);
  EXPECT_THROW(scenario::shape_trace(base, Timeline{}, 1, 5, 0),
               std::invalid_argument);
  EXPECT_THROW(scenario::shape_trace(base, Timeline{}, 1, 5, 2, 0),
               std::invalid_argument);
  // A class id outside [0, num_classes) must be rejected, not mis-binned.
  EXPECT_THROW(scenario::shape_trace(base, Timeline{}, 1, 5, 1),
               std::invalid_argument);
}

// --- Multicell ------------------------------------------------------------

TEST(Multicell, SplitsConservesAndCountsInboundHandoffs) {
  const auto base = synthetic_trace(2400, 60, 3);
  const Timeline t = scenario::make_timeline(Preset::kCommuter, 1.0,
                                             base.span(), 60);
  const auto shaped = scenario::shape_trace(base, t, 11, 60, 3, /*cells=*/3);
  ASSERT_EQ(shaped.cell.size(), shaped.trace.requests().size());

  const auto cat =
      catalog::Catalog(60, 0.8, catalog::LengthModel::paper_default(), 3);
  const auto pop = workload::ClientPopulation::paper_default();
  scenario::MulticellConfig config;
  config.cells = 3;
  config.channel.cutoff = 15;
  const auto result = scenario::run_multicell(cat, pop, shaped, config);

  ASSERT_EQ(result.cells.size(), 3u);
  EXPECT_EQ(result.offered, shaped.trace.requests().size());
  EXPECT_EQ(result.handoffs, shaped.summary.rehomed);
  std::uint64_t arrived = 0;
  for (const auto& s : result.per_class) arrived += s.arrived;
  EXPECT_EQ(arrived, shaped.trace.requests().size());
  for (const auto& cell : result.cells) {
    EXPECT_LE(cell.inbound_handoffs, cell.offered);
    if (config.channel.cutoff > 0) {
      EXPECT_GT(cell.index_m, 0u);
      EXPECT_GT(cell.tuning, 0.0);
      // Indexing trades access time for tuning time: the client dozes
      // through most of the cycle, so tuning is well under both access
      // figures while indexed access pays the index-bucket overhead.
      EXPECT_LT(cell.tuning, cell.unindexed_access);
      EXPECT_GE(cell.indexed_access, cell.unindexed_access);
    }
  }
}

TEST(Multicell, RejectsMalformedShapedTrace) {
  const auto base = synthetic_trace(100, 20, 3);
  auto shaped = scenario::shape_trace(base, Timeline{}, 1, 20, 3);
  shaped.cell.assign(50, 0);  // wrong size
  const auto cat =
      catalog::Catalog(20, 0.8, catalog::LengthModel::paper_default(), 3);
  const auto pop = workload::ClientPopulation::paper_default();
  scenario::MulticellConfig config;
  EXPECT_THROW(scenario::run_multicell(cat, pop, shaped, config),
               std::invalid_argument);
}

// --- exp integration ------------------------------------------------------

exp::Scenario scenario_with(Preset preset) {
  exp::Scenario s;
  s.num_items = 50;
  s.num_requests = 4000;
  s.preset = preset;
  return s;
}

TEST(ExpScenario, PresetShapesTheBuiltTrace) {
  const auto built = scenario_with(Preset::kFlashcrowd).build();
  EXPECT_TRUE(built.shape.active);
  EXPECT_EQ(built.shape.total_base(), 4000u);
  EXPECT_EQ(built.trace.requests().size(),
            4000u - built.shape.total_lost());
}

TEST(ExpScenario, NoPresetLeavesShapeInactive) {
  const auto built = scenario_with(Preset::kNone).build();
  EXPECT_FALSE(built.shape.active);
  EXPECT_EQ(built.trace.requests().size(), 4000u);
}

TEST(ExpScenario, ValidateRejectsBadIntensity) {
  auto s = scenario_with(Preset::kDiurnal);
  s.preset_intensity = 0.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.preset_intensity = -2.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

/// Crashes at rate 0.005, each `downtime` long, under cutoff K.
core::HybridConfig crashing(std::size_t cutoff, double downtime) {
  core::HybridConfig config;
  config.cutoff = cutoff;
  config.resilience.crash.enabled = true;
  config.resilience.crash.rate = 0.005;
  config.resilience.crash.downtime = downtime;
  return config;
}

/// Four chaos replications of `s` on `jobs` workers.
exp::ChaosSummary chaos_run(exp::Scenario s, const core::HybridConfig& config,
                            std::size_t jobs, double gap_bound = 0.0) {
  s.jobs = jobs;
  exp::ChaosOptions options;
  options.replications = 4;
  options.gap_bound = gap_bound;
  return exp::run_chaos(s, config, options);
}

exp::ChaosSummary chaos_run(Preset preset, std::size_t jobs,
                            double gap_bound = 0.0) {
  return chaos_run(scenario_with(preset), crashing(10, 15.0), jobs, gap_bound);
}

TEST(ChaosScenario, HandoffConservationInvariantIsCheckedAndPasses) {
  const auto summary = chaos_run(Preset::kCommuter, 1);
  EXPECT_GT(summary.handoff_rehomed + summary.handoff_lost, 0u);
  bool saw_handoff_check = false;
  for (const auto& check : summary.invariants.checks) {
    if (check.name == "conservation-handoff-total") saw_handoff_check = true;
  }
  EXPECT_TRUE(saw_handoff_check)
      << "chaos with an active scenario must audit handoff conservation";
  EXPECT_TRUE(summary.invariants.all_pass())
      << resilience::format_report(summary.invariants);
  EXPECT_TRUE(summary.replay_identical);
}

TEST(ChaosScenario, GapBoundInvariantIsEmittedWhenRequested) {
  const auto summary = chaos_run(Preset::kCommuter, 1, /*gap_bound=*/1e9);
  bool saw_gap_check = false;
  for (const auto& check : summary.invariants.checks) {
    if (check.name.rfind("service-gap-bound", 0) == 0) {
      saw_gap_check = true;
      EXPECT_TRUE(check.pass) << check.name << ": " << check.detail;
    }
  }
  EXPECT_TRUE(saw_gap_check);
}

/// Every pooled number of two chaos runs, compared bit for bit.
void expect_identical(const exp::ChaosSummary& a, const exp::ChaosSummary& b) {
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.handoff_rehomed, b.handoff_rehomed);
  EXPECT_EQ(a.handoff_lost, b.handoff_lost);
  EXPECT_EQ(a.total_downtime, b.total_downtime);
  EXPECT_EQ(a.overall_delay.mean(), b.overall_delay.mean());
  EXPECT_EQ(a.overall_delay.variance(), b.overall_delay.variance());
  EXPECT_EQ(a.total_cost.mean(), b.total_cost.mean());
  EXPECT_EQ(a.goodput.mean(), b.goodput.mean());
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    const auto& x = a.per_class[c];
    const auto& y = b.per_class[c];
    EXPECT_EQ(x.arrived, y.arrived) << "class " << c;
    EXPECT_EQ(x.served, y.served) << "class " << c;
    EXPECT_EQ(x.blocked, y.blocked) << "class " << c;
    EXPECT_EQ(x.abandoned, y.abandoned) << "class " << c;
    EXPECT_EQ(x.wait.mean(), y.wait.mean()) << "class " << c;
    EXPECT_EQ(x.gap.count(), y.gap.count()) << "class " << c;
    EXPECT_EQ(x.gap.mean(), y.gap.mean()) << "class " << c;
    EXPECT_EQ(x.gap.max(), y.gap.max()) << "class " << c;
  }
}

TEST(ChaosScenario, JobsCountNeverChangesTheNumbers) {
  // The small kitchen sink of chaos_run, and the §5.1 catalog at 8,000
  // requests with K = 20 and downtime 20: at 1, 2 and 8 workers every
  // pooled number is bit-identical, the invariant suite passes and every
  // replication replays identically.
  exp::Scenario paper;
  paper.num_requests = 8000;
  paper.preset = Preset::kKitchenSink;
  const std::pair<exp::Scenario, core::HybridConfig> inputs[] = {
      {scenario_with(Preset::kKitchenSink), crashing(10, 15.0)},
      {paper, crashing(20, 20.0)}};
  for (const auto& [scenario, config] : inputs) {
    SCOPED_TRACE(std::to_string(scenario.num_requests) + " requests");
    const auto serial = chaos_run(scenario, config, 1);
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
      SCOPED_TRACE("jobs " + std::to_string(jobs));
      const auto summary =
          jobs == 1 ? serial : chaos_run(scenario, config, jobs);
      expect_identical(serial, summary);
      EXPECT_TRUE(summary.invariants.all_pass())
          << resilience::format_report(summary.invariants);
      EXPECT_TRUE(summary.replay_identical);
    }
  }
}

// --- CLI smoke ------------------------------------------------------------

#if defined(PUSHPULL_CLI_PATH)

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(CliScenario, SimulateWithPresetReportsGapColumnsAndSummary) {
  const std::string tmp = "scenario_cli_out.txt";
  const std::string cmd = std::string(PUSHPULL_CLI_PATH) +
                          " simulate --requests 2000 --seed 7 --scenario "
                          "flashcrowd > " +
                          tmp;
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const std::string out = slurp(tmp);
  EXPECT_NE(out.find("gap max"), std::string::npos) << out;
  EXPECT_NE(out.find("gap p99"), std::string::npos) << out;
  EXPECT_NE(out.find("scenario flashcrowd"), std::string::npos) << out;
  std::remove(tmp.c_str());
}

// `serve --chaos` used to accept --scenario and silently ignore it; pin
// that the preset now reaches the journaled plan (the recorded rep journal
// must differ from the stationary run's) while the kill/recover/resume/
// replay chain stays bit-exact (exit 0).
TEST(CliScenario, ServeChaosScenarioShapesJournaledPlan) {
  const std::string quiet = " > /dev/null 2>&1";
  const std::string base =
      std::string(PUSHPULL_CLI_PATH) +
      " serve --chaos --reps 1 --duration 4 --target-qps 50 --seed 11 --dir .";
  ASSERT_EQ(std::system((base + quiet).c_str()), 0);
  const std::string stationary = slurp("serve_chaos_rep0.svj");
  ASSERT_EQ(std::system((base + " --scenario commuter" + quiet).c_str()), 0)
      << "shaped chaos campaign must stay replay-bit-exact";
  const std::string shaped = slurp("serve_chaos_rep0.svj");
  EXPECT_NE(stationary, shaped)
      << "--scenario must shape the requests the chaos harness journals";
  for (const char* leftover :
       {"serve_chaos_rep0.svj", "serve_chaos_rep0_killed.svj",
        "serve_chaos_rep0_resumed.svj"}) {
    std::remove(leftover);
  }
}

TEST(CliScenario, ChaosRejectsNegativeSpikeFlags) {
  const std::string quiet = " > /dev/null 2>&1";
  for (const std::string bad :
       {" chaos --reps 1 --requests 500 --spike-factor -1 --spike-duration 5",
        " chaos --reps 1 --requests 500 --spike-start -5 --spike-factor 2 "
        "--spike-duration 5",
        " chaos --reps 1 --requests 500 --spike-duration nan --spike-factor 2",
        " chaos --reps 1 --requests 500 --gap-bound -2",
        " simulate --requests 500 --scenario rush-hour"}) {
    const std::string cmd = std::string(PUSHPULL_CLI_PATH) + bad + quiet;
    EXPECT_NE(std::system(cmd.c_str()), 0) << cmd;
  }
}

#endif  // PUSHPULL_CLI_PATH

}  // namespace
}  // namespace pushpull
