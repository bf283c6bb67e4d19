// Byte pins of `figures`, the binary that prints the paper's figures and
// the ablation, extension and degradation studies. Each figure's stdout at
// --requests 6000 (the fixed-size ext_air_indexing, ext_closed_loop,
// serve_qps and serve_chaos at their defaults) is compared against
// tests/golden/figures/<name>.txt, at --jobs 3 so the pins also hold the
// grid fan-out to the serial numbers;
// the all-figures run must print the goldens in index order; and the
// inputs no figure can run must exit 1 with a message. On a mismatch the
// actual bytes are written next to the test binary (<name>.txt.actual).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

const std::string kGoldenDir = std::string(PUSHPULL_GOLDEN_DIR) + "/figures";

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct Output {
  int exit_code = -1;
  std::string text;
};

/// Runs `figures <args>` and captures its stdout, with stderr appended
/// when `with_stderr`. The capture file is named after the process and the
/// arguments, so tests that ctest runs in parallel never share one.
Output run_figures(const std::string& args, bool with_stderr) {
  std::string file =
      "figures_" + std::to_string(::getpid()) + "_" + args + ".txt";
  for (char& c : file) {
    if (c == ' ' || c == '/') c = '_';
  }
  const std::string cmd = std::string(PUSHPULL_FIGURES_PATH) + " " + args +
                          " > " + file + (with_stderr ? " 2>&1" : "");
  const int status = std::system(cmd.c_str());
  Output out;
  if (WIFEXITED(status)) out.exit_code = WEXITSTATUS(status);
  out.text = slurp(file);
  std::remove(file.c_str());
  return out;
}

/// The figure names in index order, as the unknown-NAME error lists them.
std::vector<std::string> figure_names() {
  const Output out = run_figures("no_such_figure", true);
  EXPECT_EQ(out.exit_code, 1);
  EXPECT_NE(out.text.find("unknown figure 'no_such_figure'"),
            std::string::npos)
      << out.text;
  std::vector<std::string> names;
  std::istringstream lines(out.text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  ", 0) == 0) names.push_back(line.substr(2));
  }
  return names;
}

/// The figures that read no --requests.
bool fixed_size(const std::string& name) {
  return name == "ext_air_indexing" || name == "ext_closed_loop" ||
         name == "serve_qps" || name == "serve_chaos";
}

void expect_golden(const std::string& actual, const std::string& name) {
  const std::string path = kGoldenDir + "/" + name + ".txt";
  const std::string expected = slurp(path);
  if (actual != expected) {
    std::ofstream(name + ".txt.actual", std::ios::binary) << actual;
  }
  ASSERT_FALSE(expected.empty()) << "missing golden " << path;
  EXPECT_TRUE(actual == expected)
      << name << " drifted from its golden; see " << name << ".txt.actual";
}

/// The command exits 1 and prints `needle`.
void expect_error(const std::string& args, const std::string& needle) {
  const Output out = run_figures(args, true);
  EXPECT_EQ(out.exit_code, 1) << args << "\n" << out.text;
  EXPECT_NE(out.text.find(needle), std::string::npos)
      << args << "\n" << out.text;
}

TEST(Figures, TableListsTheGoldensInIndexOrder) {
  // DESIGN.md's experiment index, top to bottom.
  const std::vector<std::string> index_order = {
      "fig3_delay_alpha0",      "fig4_delay_alpha1",
      "fig34_delay_alpha_mid",  "fig5_prioritized_cost",
      "fig6_cost_vs_alpha",     "fig7_analytic_vs_sim",
      "ext_blocking_bandwidth", "abl_pull_policies",
      "abl_push_policies",      "abl_importance_forms",
      "abl_aging",              "ext_adaptive_drift",
      "ext_multichannel",       "ext_client_cache",
      "ext_uplink_contention",  "ext_air_indexing",
      "ext_burstiness",         "ext_closed_loop",
      "fault_degradation",      "chaos_resilience",
      "serve_qps",              "serve_chaos",
      "scenario_sweep"};
  EXPECT_EQ(figure_names(), index_order);
  std::set<std::string> goldens;
  for (const auto& entry : std::filesystem::directory_iterator(kGoldenDir)) {
    goldens.insert(entry.path().stem().string());
  }
  EXPECT_EQ(std::set<std::string>(index_order.begin(), index_order.end()),
            goldens);
}

TEST(Figures, EachFigureMatchesItsGoldenAtJobs3) {
  for (const std::string& name : figure_names()) {
    const std::string args =
        name + (fixed_size(name) ? "" : " --requests 6000") +
        " --jobs 3";
    const Output out = run_figures(args, false);
    EXPECT_EQ(out.exit_code, 0) << args;
    expect_golden(out.text, name);
  }
}

TEST(Figures, AllFiguresPrintTheGoldensInIndexOrder) {
  std::string expected;
  for (const std::string& name : figure_names()) {
    expected += slurp(kGoldenDir + "/" + name + ".txt");
  }
  const Output out = run_figures("--requests 6000 --jobs 3", false);
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_TRUE(out.text == expected)
      << "the all-figures run is not the goldens in index order";
}

TEST(Figures, RejectsCountsThatLeaveATraceEmpty) {
  expect_error("fig3_delay_alpha0 --requests 0",
               "fig3_delay_alpha0 needs --requests >= 1 ");
  for (const char* name :
       {"ext_adaptive_drift", "ext_burstiness", "ext_client_cache"}) {
    expect_error(std::string(name) + " --requests 1",
                 std::string(name) + " needs --requests >= 2 ");
  }
  expect_error("ext_uplink_contention --requests 2",
               "ext_uplink_contention needs --requests >= 3 ");
  // The all-figures run names the figure that needs the most.
  expect_error("--requests 0", "ext_uplink_contention needs --requests >= 3 ");
  expect_error("--requests 2", "ext_uplink_contention needs --requests >= 3 ");
}

TEST(Figures, RejectsFlagsTheFigureDoesNotRead) {
  expect_error("ext_air_indexing --requests 2000",
               "unknown option --requests (");
  expect_error("ext_closed_loop --requests 2000",
               "unknown option --requests (");
  expect_error("serve_qps --requests 2000", "unknown option --requests (");
  expect_error("serve_chaos --duration 60", "unknown option --duration (");
  expect_error("chaos_resilience --out x", "unknown option --out (");
  expect_error("fig4_delay_alpha1 --requests 2000 --bogus 1",
               "unknown option --bogus (");
  expect_error("fig4_delay_alpha1 --requests 2000 --out x",
               "unknown option --out (");
  expect_error("fig4_delay_alpha1 --requests 2000 --plot p",
               "unknown option --plot (");
  expect_error("--requests 2000 --plot p", "unknown option --plot (");
  expect_error("fig3_delay_alpha0 --requests 2000abc",
               "--requests expects a non-negative integer, got '2000abc'");
  expect_error("fig3_delay_alpha0 --requests 2000 --jobs 0",
               "--jobs must be >= 1");
  expect_error("fig3_delay_alpha0 --requests 2000 extra",
               "unexpected argument 'extra'");
}

TEST(Figures, AnErrorInARunExitsOneWithItsMessage) {
  expect_error("fig7_analytic_vs_sim --requests 2000 --plot no_such_dir/p",
               "write_gnuplot: cannot write no_such_dir/p.dat");
}

}  // namespace
