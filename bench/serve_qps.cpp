// R4 — live-serving throughput/latency sweep (see EXPERIMENTS.md).
//
// Drives the completion-queue server (accelerated virtual clock, so the
// sweep is seeded and bit-reproducible) across a range of offered loads,
// reporting achieved vs target QPS, per-class p50/p95/p99 waits and
// pull-queue depth, and writes BENCH_serve.json so the serving trajectory
// is tracked across PRs. Every point also records its sv1 trace and feeds
// it back through the deterministic DES core, asserting the record/replay
// bridge is bit-exact (exit 1 when any point diverges).
//
//   serve_qps [--duration T] [--seed S] [--out FILE]
//
// Defaults: 300 broadcast units per point, seed 20050614,
// out = BENCH_serve.json.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exp/table.hpp"
#include "obs/export.hpp"
#include "serve/serve.hpp"

namespace {

using namespace pushpull;

/// One sweep point, plus whether its replay reproduced the live run.
struct Point {
  double target_qps = 0.0;
  serve::ServeReport report;
  bool bridge_exact = false;
};

/// The live run and DES replay agree on *every* statistic the two rendered
/// reports share — counts exactly, waits bit-for-bit.
bool bridge_matches(const serve::ServeReport& live,
                    const core::SimResult& replayed) {
  if (live.end_time != replayed.end_time ||
      live.push_transmissions != replayed.push_transmissions ||
      live.pull_transmissions != replayed.pull_transmissions ||
      live.mean_pull_queue_len != replayed.mean_pull_queue_len ||
      live.max_pull_queue_len != replayed.max_pull_queue_len ||
      live.per_class.size() != replayed.per_class.size()) {
    return false;
  }
  for (std::size_t c = 0; c < live.per_class.size(); ++c) {
    const auto& a = live.per_class[c];
    const auto& b = replayed.per_class[c];
    if (a.arrived != b.arrived || a.served != b.served ||
        a.wait.mean() != b.wait.mean() || a.wait.count() != b.wait.count()) {
      return false;
    }
  }
  return true;
}

Point run_point(serve::ServeConfig config) {
  Point p;
  p.target_qps = config.target_qps;

  std::stringstream trace;
  {
    serve::TraceRecorder recorder(trace, config);
    const auto cat = config.build_catalog();
    const auto pop = config.build_population();
    serve::LoadDriver driver(cat, pop, config.target_qps, config.duration,
                             config.seed);
    serve::LiveServer server(cat, pop, config);
    p.report = server.run_accelerated(driver, &recorder);
  }

  const serve::RecordedRun run = serve::load_trace(trace);
  const auto replayed = serve::replay(run);
  p.bridge_exact = replayed.size() == 1 && bridge_matches(p.report,
                                                          replayed.front());
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  double duration = 300.0;
  std::uint64_t seed = 20050614;
  std::string out_path = "BENCH_serve.json";
  bench::parse_or_exit(argc, argv, [&](const exp::ArgParser& args) {
    duration = args.get_positive_double("duration", duration);
    seed = args.get_u64("seed", seed);
    out_path = args.get_string("out", out_path);
  });

  const std::vector<double> sweep = {2.0, 5.0, 8.0, 12.0, 20.0};
  std::vector<Point> points;
  for (const double qps : sweep) {
    serve::ServeConfig config;
    config.accelerated = true;
    config.duration = duration;
    config.target_qps = qps;
    config.seed = seed;
    points.push_back(run_point(config));
  }

  exp::Table table({"target qps", "achieved", "served", "queue p99",
                    "c0 p95", "c1 p95", "c2 p95", "replay"});
  for (const Point& p : points) {
    auto& row = table.row();
    row.add(p.target_qps, 1).add(p.report.achieved_qps, 3);
    row.add(static_cast<std::size_t>(p.report.served));
    row.add(p.report.queue_depth.p99, 2);
    for (const auto& cls : p.report.per_class) {
      row.add(cls.wait_p95.count() > 0 ? cls.wait_p95.value() : 0.0, 2);
    }
    row.add(p.bridge_exact ? "exact" : "DIVERGED");
  }
  table.print(std::cout);

  bool all_exact = true;
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "serve_qps: cannot open " << out_path << "\n";
    return 2;
  }
  out << "{\n  \"bench\": \"serve_qps\",\n  \"duration\": "
      << obs::render_number(duration) << ",\n  \"seed\": " << seed
      << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    const auto& r = p.report;
    out << "    {\"target_qps\": " << obs::render_number(p.target_qps)
        << ", \"achieved_qps\": " << obs::render_number(r.achieved_qps)
        << ", \"arrivals\": " << r.arrivals << ", \"served\": " << r.served
        << ", \"end_time\": " << obs::render_number(r.end_time)
        << ", \"mean_pull_queue_len\": "
        << obs::render_number(r.mean_pull_queue_len)
        << ", \"queue_p50\": " << obs::render_number(r.queue_depth.p50)
        << ", \"queue_p99\": " << obs::render_number(r.queue_depth.p99)
        << ", \"replay_exact\": " << (p.bridge_exact ? "true" : "false")
        << ", \"classes\": [";
    for (std::size_t c = 0; c < r.per_class.size(); ++c) {
      const auto& cls = r.per_class[c];
      out << (c == 0 ? "" : ", ") << "{\"mean_wait\": "
          << obs::render_number(cls.wait.mean()) << ", \"p50\": "
          << obs::render_number(
                 cls.wait_p50.count() > 0 ? cls.wait_p50.value() : 0.0)
          << ", \"p95\": "
          << obs::render_number(
                 cls.wait_p95.count() > 0 ? cls.wait_p95.value() : 0.0)
          << ", \"p99\": "
          << obs::render_number(
                 cls.wait_p99.count() > 0 ? cls.wait_p99.value() : 0.0)
          << "}";
    }
    out << "]}" << (i + 1 < points.size() ? "," : "") << "\n";
    all_exact = all_exact && p.bridge_exact;
  }
  out << "  ],\n  \"all_replays_exact\": " << (all_exact ? "true" : "false")
      << "\n}\n";

  std::cout << "wrote " << out_path << " ("
            << (all_exact ? "all replays bit-exact" : "REPLAY DIVERGENCE")
            << ")\n";
  return all_exact ? 0 : 1;
}
