// R5 — live failure-model degradation sweep (see EXPERIMENTS.md).
//
// Drives the completion-queue server (accelerated virtual clock, so every
// point is seeded and bit-reproducible) through the full failure model —
// per-class deadlines, the Gilbert-Elliott channel with bounded retries,
// the bounded queue with priority shedding, and the overload ladder —
// across a range of offered loads, and reports achieved QPS, the ladder
// level each load reached, and per-class timeout/retry/shed rates and
// p95/p99 waits. Results land in BENCH_serve_chaos.json so the live
// degradation trajectory is tracked across PRs.
//
// Exit gate (the paper's differentiated-QoS promise under failure): at
// every load, a higher-priority class never sees a worse total failure
// rate — (timed_out + shed + rejected + lost) / arrived — than a
// lower-priority one. Totals, not just timeouts: the ladder deliberately
// converts low-class timeouts into sheds and uplink rejections, so a
// timeout-only comparison would read deliberate sacrifice as priority
// inversion. Rates are compared exactly via cross-multiplication — no
// float thresholds.
//
//   serve_chaos [--duration T] [--seed S] [--out FILE]
//
// Defaults: 200 broadcast units per point, seed 20050614,
// out = BENCH_serve_chaos.json.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/table.hpp"
#include "obs/export.hpp"
#include "serve/serve.hpp"

namespace {

using namespace pushpull;

struct Point {
  double target_qps = 0.0;
  serve::ServeReport report;
  bool qos_ordered = false;
};

std::uint64_t failures(const metrics::ClassStats& s) {
  return s.abandoned + s.shed + s.rejected + s.lost;
}

/// fail_rate(c) <= fail_rate(c+1) for every adjacent class pair, compared
/// exactly: failures[c] * arrived[c+1] <= failures[c+1] * arrived[c].
/// Classes with no arrivals never violate the gate.
bool failure_rates_ordered(const std::vector<metrics::ClassStats>& stats) {
  for (std::size_t c = 0; c + 1 < stats.size(); ++c) {
    const auto& hi = stats[c];      // higher priority (priorities are N..1)
    const auto& lo = stats[c + 1];
    if (hi.arrived == 0 || lo.arrived == 0) continue;
    if (failures(hi) * lo.arrived > failures(lo) * hi.arrived) return false;
  }
  return true;
}

double rate(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

Point run_point(const serve::ServeConfig& config) {
  const auto cat = config.build_catalog();
  const auto pop = config.build_population();
  serve::LoadDriver driver(cat, pop, config.target_qps, config.duration,
                           config.seed);
  serve::LiveServer server(cat, pop, config);
  Point p;
  p.target_qps = config.target_qps;
  p.report = server.run_accelerated(driver, nullptr);
  p.qos_ordered = failure_rates_ordered(p.report.per_class);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  double duration = 200.0;
  std::uint64_t seed = 20050614;
  std::string out_path = "BENCH_serve_chaos.json";
  bench::parse_or_exit(argc, argv, [&](const exp::ArgParser& args) {
    duration = args.get_positive_double("duration", duration);
    seed = args.get_u64("seed", seed);
    out_path = args.get_string("out", out_path);
  });

  // Uniform deadlines (no per-class scales): any per-class failure skew is
  // the scheduler's and ladder's priority treatment, which is exactly what
  // the gate certifies.
  const std::vector<double> sweep = {4.0, 8.0, 14.0, 22.0};
  std::vector<Point> points;
  for (const double qps : sweep) {
    serve::ServeConfig config;
    config.accelerated = true;
    config.duration = duration;
    config.target_qps = qps;
    config.seed = seed;
    config.mean_deadline = 6.0;
    config.fault.enabled = true;
    config.fault.channel.p_good_to_bad = 0.05;
    config.fault.channel.p_bad_to_good = 0.25;
    config.fault.channel.corrupt_bad = 0.6;
    config.fault.channel.corrupt_good = 0.01;
    config.fault.queue_capacity = 32;
    config.fault.shed_policy = fault::ShedPolicy::kDropLowestPriority;
    config.overload.enabled = true;
    points.push_back(run_point(config));
  }

  exp::Table table({"target qps", "achieved", "ladder", "fail c0/c1/c2",
                    "retry", "shed", "qos"});
  for (const Point& p : points) {
    const auto& r = p.report;
    auto& row = table.row();
    row.add(p.target_qps, 1).add(r.achieved_qps, 3);
    row.add(static_cast<std::size_t>(r.max_overload_level));
    std::string fails;
    for (std::size_t c = 0; c < r.per_class.size(); ++c) {
      fails += (c ? "/" : "");
      char buf[16];
      std::snprintf(buf, sizeof buf, "%.3f",
                    rate(failures(r.per_class[c]), r.per_class[c].arrived));
      fails += buf;
    }
    row.add(fails);
    row.add(rate(r.retries, r.arrivals), 3);
    row.add(rate(r.shed, r.arrivals), 3);
    row.add(p.qos_ordered ? "ordered" : "INVERTED");
  }
  table.print(std::cout);

  bool all_ordered = true;
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "serve_chaos: cannot open " << out_path << "\n";
    return 2;
  }
  out << "{\n  \"bench\": \"serve_chaos\",\n  \"duration\": "
      << obs::render_number(duration) << ",\n  \"seed\": " << seed
      << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const auto& r = p.report;
    out << "    {\"target_qps\": " << obs::render_number(p.target_qps)
        << ", \"achieved_qps\": " << obs::render_number(r.achieved_qps)
        << ", \"arrivals\": " << r.arrivals << ", \"served\": " << r.served
        << ", \"timed_out\": " << r.timed_out
        << ", \"retries\": " << r.retries << ", \"shed\": " << r.shed
        << ", \"lost\": " << r.lost << ", \"rejected\": " << r.rejected
        << ", \"max_overload_level\": "
        << static_cast<int>(r.max_overload_level)
        << ", \"ladder_transitions\": " << r.ladder_transitions
        << ", \"qos_ordered\": " << (p.qos_ordered ? "true" : "false")
        << ", \"classes\": [";
    for (std::size_t c = 0; c < r.per_class.size(); ++c) {
      const auto& cls = r.per_class[c];
      out << (c == 0 ? "" : ", ") << "{\"arrived\": " << cls.arrived
          << ", \"timed_out\": " << cls.abandoned
          << ", \"retries\": " << cls.retries << ", \"shed\": " << cls.shed
          << ", \"rejected\": " << cls.rejected << ", \"lost\": " << cls.lost
          << ", \"fail_rate\": "
          << obs::render_number(rate(failures(cls), cls.arrived))
          << ", \"p95\": "
          << obs::render_number(
                 cls.wait_p95.count() > 0 ? cls.wait_p95.value() : 0.0)
          << ", \"p99\": "
          << obs::render_number(
                 cls.wait_p99.count() > 0 ? cls.wait_p99.value() : 0.0)
          << "}";
    }
    out << "]}" << (i + 1 < points.size() ? "," : "") << "\n";
    all_ordered = all_ordered && p.qos_ordered;
  }
  out << "  ],\n  \"qos_gate\": " << (all_ordered ? "true" : "false")
      << "\n}\n";

  std::cout << "wrote " << out_path << " ("
            << (all_ordered ? "QoS ordering holds at every load"
                            : "QOS ORDERING INVERTED")
      << ")\n";
  return all_ordered ? 0 : 1;
}
