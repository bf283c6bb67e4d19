// detlint's own test suite: every rule fires on its fixture exactly at the
// marked lines, path scoping works (D2/D5/R1/R2), the clean fixture is
// silent, suppressions and the baseline filter findings, the tree-wide
// D3 declaration merge catches cross-file header/impl splits, the layer DAG
// rejects undeclared include edges, dead suppressions and stale baseline
// entries are themselves findings, and the SARIF rendering validates
// against the 2.1.0 structural schema offline.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hpp"
#include "report.hpp"

#ifndef DETLINT_FIXTURE_DIR
#error "DETLINT_FIXTURE_DIR must point at tools/detlint/fixtures"
#endif

namespace {

std::string read_fixture(const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::path(DETLINT_FIXTURE_DIR) / name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// (line, rule) pairs declared by `DETLINT-EXPECT: <rule>` markers.
std::set<std::pair<std::size_t, std::string>> expected_findings(
    const std::string& text) {
  std::set<std::pair<std::size_t, std::string>> expected;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string marker = "DETLINT-EXPECT: ";
    const std::size_t pos = line.find(marker);
    if (pos == std::string::npos) continue;
    std::string rule;
    for (std::size_t i = pos + marker.size();
         i < line.size() && (std::isalnum(line[i]) != 0); ++i) {
      rule += line[i];
    }
    expected.emplace(lineno, rule);
  }
  return expected;
}

std::set<std::pair<std::size_t, std::string>> actual_findings(
    const std::vector<detlint::Diagnostic>& diags) {
  std::set<std::pair<std::size_t, std::string>> actual;
  for (const auto& d : diags) actual.emplace(d.line, d.rule);
  return actual;
}

/// The fixture must produce exactly its marked findings — no more, no
/// fewer, at exactly the marked lines.
void expect_matches_markers(const std::string& fixture,
                            const std::string& pretend_path) {
  const std::string text = read_fixture(fixture);
  const auto expected = expected_findings(text);
  ASSERT_FALSE(expected.empty()) << fixture << " has no markers";
  const auto diags = detlint::analyze_source(pretend_path, text);
  EXPECT_EQ(actual_findings(diags), expected) << fixture;
}

TEST(DetlintRules, D1FiresOnWallClockSources) {
  expect_matches_markers("bad_d1.cpp", "src/sim/bad_d1.cpp");
}

TEST(DetlintRules, D1SkipsServeClockBoundaryFile) {
  // The wall backend of serve::Clock is the one sanctioned machine-time
  // read in the tree: under its real path the steady_clock uses are clean,
  // while the identical text anywhere else — even next door in src/serve/ —
  // still flags.
  const std::string text = read_fixture("serve_clock_boundary.cpp");
  EXPECT_TRUE(detlint::analyze_source("src/serve/clock.cpp", text).empty())
      << "the serve::Clock wall backend is the sanctioned D1 boundary";
  EXPECT_FALSE(
      detlint::analyze_source("src/serve/event_loop.cpp", text).empty())
      << "the exemption must cover exactly src/serve/clock.cpp";
  EXPECT_FALSE(detlint::analyze_source("src/core/clock.cpp", text).empty())
      << "the exemption must not follow the file name to other directories";
}

TEST(DetlintRules, D1FiresOnWallClockLeaksOutsideTheBoundary) {
  expect_matches_markers("serve_clock_leak.cpp", "src/serve/event_loop.cpp");
}

TEST(DetlintRules, D2FiresOnRawEnginesOutsideRng) {
  expect_matches_markers("bad_d2.cpp", "src/sim/bad_d2.cpp");
}

TEST(DetlintRules, D2IsAllowedInsideRngSubsystem) {
  const std::string text = read_fixture("bad_d2.cpp");
  const auto diags = detlint::analyze_source("src/rng/bad_d2.cpp", text);
  EXPECT_TRUE(diags.empty())
      << "engines are legal inside src/rng/, got " << diags.size();
}

TEST(DetlintRules, D3FiresOnUnorderedIteration) {
  expect_matches_markers("bad_d3.cpp", "src/exp/bad_d3.cpp");
}

TEST(DetlintRules, D3AcceptsSortedViewRouting) {
  // The fixture's second loop routes through sorted_view; the marker set
  // (exactly one D3) proves it stays silent. Belt-and-braces: no D3 on the
  // sorted_view line.
  const std::string text = read_fixture("bad_d3.cpp");
  const auto diags = detlint::analyze_source("src/exp/bad_d3.cpp", text);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D3");
}

TEST(DetlintRules, D3SeesCrossFileDeclarationsViaExtraNames) {
  const std::string body =
      "void emit(const Options& options_) {\n"
      "  for (const auto& kv : options_) {\n"
      "    (void)kv;\n"
      "  }\n"
      "}\n";
  // Without the tree-wide declaration set the lexical pass cannot know
  // options_ is unordered.
  EXPECT_TRUE(detlint::analyze_source("src/exp/emit.cpp", body).empty());
  const auto diags =
      detlint::analyze_source("src/exp/emit.cpp", body, {"options_"});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D3");
  EXPECT_EQ(diags[0].line, 2u);
}

TEST(DetlintRules, CollectUnorderedNamesFindsHeaderDeclarations) {
  const auto names = detlint::collect_unordered_names(
      "class ArgParser {\n"
      "  std::unordered_map<std::string, std::string> options_;\n"
      "  std::unordered_set<int> seen_;\n"
      "  std::map<int, int> ordered_;\n"
      "};\n");
  EXPECT_EQ(names, (std::set<std::string>{"options_", "seen_"}));
}

TEST(DetlintRules, D4FiresOnFloatAndRawLiteralComparison) {
  expect_matches_markers("bad_d4.cpp", "src/metrics/bad_d4.cpp");
}

TEST(DetlintRules, D4SkipsApprovedHelperFile) {
  const std::string helper =
      "constexpr bool exactly_equal(double a, double b) {\n"
      "  return a == b;\n"
      "}\n"
      "constexpr bool is_zero(double a) { return a == 0.0; }\n";
  // Same text: flagged anywhere else, approved in the helper's home.
  EXPECT_FALSE(
      detlint::analyze_source("src/metrics/other.hpp", helper).empty());
  EXPECT_TRUE(
      detlint::analyze_source("src/metrics/float_compare.hpp", helper)
          .empty());
}

TEST(DetlintRules, R1FiresOnAssertInLibraryCode) {
  expect_matches_markers("bad_r1.cpp", "src/core/bad_r1.cpp");
}

TEST(DetlintRules, R1ScopesToSrcOnly) {
  const std::string text = read_fixture("bad_r1.cpp");
  const auto diags = detlint::analyze_source("bench/bad_r1.cpp", text);
  EXPECT_TRUE(diags.empty())
      << "assert() is legal outside src/, got " << diags.size();
}

TEST(DetlintRules, R2FiresOnUsingNamespaceInHeader) {
  expect_matches_markers("bad_r2.hpp", "src/core/bad_r2.hpp");
}

TEST(DetlintRules, R2ScopesToHeadersOnly) {
  const std::string text = read_fixture("bad_r2.hpp");
  const auto diags = detlint::analyze_source("src/core/bad_r2.cpp", text);
  EXPECT_TRUE(diags.empty())
      << "using namespace is legal in a .cpp, got " << diags.size();
}

TEST(DetlintClean, CleanFixtureProducesNoFindings) {
  const std::string text = read_fixture("clean.cpp");
  for (const char* path : {"src/sim/clean.cpp", "src/sim/clean.hpp"}) {
    const auto diags = detlint::analyze_source(path, text);
    std::string listing;
    for (const auto& d : diags) {
      listing += d.file + ":" + std::to_string(d.line) + ": " + d.rule + "\n";
    }
    EXPECT_TRUE(diags.empty()) << "unexpected findings:\n" << listing;
  }
}

TEST(DetlintSuppression, SuppressedFixtureIsSilent) {
  const std::string text = read_fixture("suppressed.cpp");
  const auto diags = detlint::analyze_source("src/sim/suppressed.cpp", text);
  std::string listing;
  for (const auto& d : diags) {
    listing += d.file + ":" + std::to_string(d.line) + ": " + d.rule + "\n";
  }
  EXPECT_TRUE(diags.empty()) << "unexpected findings:\n" << listing;
}

TEST(DetlintSuppression, FindingsReappearWithoutSuppressions) {
  std::string text = read_fixture("suppressed.cpp");
  // Neutralize every directive; the violations are still in the code.
  const std::string directive = "detlint:allow";
  std::size_t pos = 0;
  std::size_t neutralized = 0;
  while ((pos = text.find(directive, pos)) != std::string::npos) {
    text.replace(pos, directive.size(), "detlint:nope!");
    ++neutralized;
  }
  ASSERT_GE(neutralized, 3u);
  const auto diags = detlint::analyze_source("src/sim/suppressed.cpp", text);
  std::set<std::string> rules;
  for (const auto& d : diags) rules.insert(d.rule);
  EXPECT_TRUE(rules.count("D1") != 0) << "steady_clock should resurface";
  EXPECT_TRUE(rules.count("D3") != 0) << "unordered loop should resurface";
  EXPECT_TRUE(rules.count("D4") != 0) << "sentinel == should resurface";
}

TEST(DetlintSuppression, FileWideAllowCoversWholeFile) {
  const std::string body =
      "// detlint:allow-file(D4): fixture-wide exemption\n"
      "bool a(double x) { return x == 1.0; }\n"
      "bool b(double x) { return x != 2.5; }\n";
  EXPECT_TRUE(detlint::analyze_source("src/metrics/f.cpp", body).empty());
}

TEST(DetlintSuppression, StandaloneCommentCoversNextLineOnly) {
  const std::string body =
      "// detlint:allow(D4): covers the next line\n"
      "bool a(double x) { return x == 1.0; }\n"
      "bool b(double x) { return x == 1.0; }\n";
  const auto diags = detlint::analyze_source("src/metrics/f.cpp", body);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 3u);
}

TEST(DetlintBaseline, BaselineMarksButDoesNotDrop) {
  std::istringstream baseline_text(
      "# comment\n"
      "\n"
      "src/sim/old.cpp:D1\n");
  const auto baseline = detlint::Baseline::parse(baseline_text);
  EXPECT_EQ(baseline.size(), 1u);

  std::vector<detlint::Diagnostic> diags = detlint::analyze_source(
      "src/sim/old.cpp", "long seed() { return time(nullptr); }\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "D1");

  detlint::apply_baseline(diags, baseline);
  EXPECT_TRUE(diags[0].baselined);
  EXPECT_EQ(detlint::fresh_count(diags), 0u);

  // A different file with the same finding is NOT covered.
  std::vector<detlint::Diagnostic> other = detlint::analyze_source(
      "src/sim/new.cpp", "long seed() { return time(nullptr); }\n");
  detlint::apply_baseline(other, baseline);
  EXPECT_EQ(detlint::fresh_count(other), 1u);
}

TEST(DetlintMeta, RuleTableListsAllNineRules) {
  const auto& rules = detlint::rules();
  ASSERT_EQ(rules.size(), 9u);
  std::vector<std::string> ids;
  ids.reserve(rules.size());
  for (const auto& r : rules) ids.emplace_back(r.id);
  EXPECT_EQ(ids, (std::vector<std::string>{"D1", "D2", "D3", "D4", "D5",
                                           "L1", "R1", "R2", "S1"}));
}

TEST(DetlintMeta, CommentsAndStringsNeverFire) {
  const std::string body =
      "// rand() time(nullptr) float x == 1.0 assert(x)\n"
      "/* std::mt19937 engine; using namespace std; */\n"
      "const char* s = \"rand() assert(true) == 0.5\";\n"
      "const char* r = R\"(time(nullptr) float)\";\n";
  for (const char* path : {"src/sim/c.cpp", "src/sim/c.hpp"}) {
    EXPECT_TRUE(detlint::analyze_source(path, body).empty()) << path;
  }
}

// ---------------------------------------------------------------------------
// D5: RNG stream purity
// ---------------------------------------------------------------------------

TEST(DetlintRules, D5FiresOnAllThreeImpurityModes) {
  expect_matches_markers("bad_d5.cpp", "src/sim/bad_d5.cpp");
}

TEST(DetlintRules, D5IsScopedToSrcOutsideRng) {
  const std::string text = read_fixture("bad_d5.cpp");
  EXPECT_TRUE(detlint::analyze_source("src/rng/bad_d5.cpp", text).empty())
      << "the stream factory itself may construct and seed engines";
  EXPECT_TRUE(detlint::analyze_source("bench/bad_d5.cpp", text).empty())
      << "D5 polices library code, not benches";
}

// ---------------------------------------------------------------------------
// L1: layer DAG
// ---------------------------------------------------------------------------

detlint::LayerConfig mini_layer_config() {
  std::istringstream toml(
      "[layers]\n"
      "des = []\n"
      "core = [\"des\"]\n"
      "serve = [\"core\"]\n"
      "cli = [\"*\"]\n"
      "exp = []\n"
      "[restricted]\n"
      "exp = [\"cli\"]\n");
  return detlint::LayerConfig::parse(toml);
}

TEST(DetlintLayers, L1FiresOnUndeclaredAndRestrictedEdges) {
  const detlint::LayerConfig layers = mini_layer_config();
  ASSERT_TRUE(layers.errors.empty());
  const std::string text = read_fixture("bad_l1.cpp");
  const auto expected = expected_findings(text);
  ASSERT_FALSE(expected.empty());
  const auto diags =
      detlint::analyze_source("src/core/bad_l1.cpp", text, {}, &layers);
  EXPECT_EQ(actual_findings(diags), expected);
}

TEST(DetlintLayers, WildcardLayerMayIncludeAnythingButRestricted) {
  const detlint::LayerConfig layers = mini_layer_config();
  const std::string body =
      "#include \"core/hybrid.hpp\"\n"
      "#include \"serve/live.hpp\"\n"
      "#include \"exp/cli.hpp\"\n";
  // tools/ maps to the wildcard `cli` layer, which is also on exp's
  // restricted allow-list — everything is legal.
  EXPECT_TRUE(
      detlint::analyze_source("tools/pushpull_cli.cpp", body, {}, &layers)
          .empty());
  // bench is not declared in the mini config, so it is unlayered: silent.
  EXPECT_TRUE(
      detlint::analyze_source("bench/b.cpp", body, {}, &layers).empty());
}

TEST(DetlintLayers, L1SkipsEntirelyWithoutConfig) {
  const std::string body = "#include \"serve/live.hpp\"\n";
  EXPECT_TRUE(
      detlint::analyze_source("src/core/f.cpp", body, {}, nullptr).empty());
}

TEST(DetlintLayers, ConfigRejectsUndeclaredDepsAndCycles) {
  std::istringstream cyclic(
      "[layers]\n"
      "a = [\"b\"]\n"
      "b = [\"a\"]\n"
      "c = [\"ghost\"]\n");
  const auto config = detlint::LayerConfig::parse(cyclic);
  std::string joined;
  for (const auto& e : config.errors) joined += e + "\n";
  EXPECT_NE(joined.find("undeclared layer 'ghost'"), std::string::npos)
      << joined;
  EXPECT_NE(joined.find("cycle"), std::string::npos) << joined;
  // Config problems surface as L1 findings against the config file itself.
  const auto diags =
      detlint::check_layer_config(config, "tools/detlint/layers.toml");
  EXPECT_EQ(diags.size(), config.errors.size());
  for (const auto& d : diags) {
    EXPECT_EQ(d.rule, "L1");
    EXPECT_EQ(d.file, "tools/detlint/layers.toml");
  }
}

TEST(DetlintLayers, ConfigRejectsMalformedLines) {
  std::istringstream bad(
      "[layers]\n"
      "des = []\n"
      "this is not toml\n");
  const auto config = detlint::LayerConfig::parse(bad);
  ASSERT_EQ(config.errors.size(), 1u);
  EXPECT_NE(config.errors[0].find("line 3"), std::string::npos);
}

TEST(DetlintLayers, MissingConfigLoadsEmpty) {
  const auto config =
      detlint::LayerConfig::load_file("/nonexistent/layers.toml");
  EXPECT_TRUE(config.empty());
}

TEST(DetlintLayers, RealTreeConfigParsesCleanly) {
  const std::filesystem::path root = DETLINT_REPO_ROOT;
  const auto config = detlint::LayerConfig::load_file(
      (root / "tools" / "detlint" / "layers.toml").string());
  ASSERT_FALSE(config.empty()) << "the repo must ship a layer DAG";
  std::string joined;
  for (const auto& e : config.errors) joined += e + "\n";
  EXPECT_TRUE(config.errors.empty()) << joined;
}

// ---------------------------------------------------------------------------
// S1: dead suppressions and the baseline ratchet
// ---------------------------------------------------------------------------

TEST(DetlintSuppression, S1FiresOnEveryDeadDirective) {
  expect_matches_markers("bad_s1.cpp", "src/sim/bad_s1.cpp");
}

TEST(DetlintSuppression, S1CannotBeSuppressed) {
  // Allowing S1 on a dead directive's line must not silence it — a
  // suppression that suppresses the dead-suppression checker is a paradox.
  const std::string body =
      "// detlint:allow(S1, D4): nothing below trips D4\n"
      "int clean() { return 0; }\n";
  const auto diags = detlint::analyze_source("src/sim/f.cpp", body);
  ASSERT_FALSE(diags.empty());
  for (const auto& d : diags) EXPECT_EQ(d.rule, "S1");
}

TEST(DetlintBaseline, RatchetFlagsStaleEntries) {
  std::istringstream baseline_text(
      "src/sim/old.cpp:D1\n"
      "src/sim/gone.cpp:D4\n");
  const auto baseline = detlint::Baseline::parse(baseline_text);
  std::vector<detlint::Diagnostic> diags = detlint::analyze_source(
      "src/sim/old.cpp", "long seed() { return time(nullptr); }\n");
  detlint::apply_baseline(diags, baseline);
  EXPECT_EQ(detlint::fresh_count(diags), 0u);
  const auto stale = detlint::baseline_ratchet(diags, baseline,
                                               "tools/detlint/baseline.txt");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "S1");
  EXPECT_EQ(stale[0].file, "tools/detlint/baseline.txt");
  EXPECT_EQ(stale[0].line, 0u);
  EXPECT_NE(stale[0].message.find("src/sim/gone.cpp:D4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Reporting: JSON and SARIF
// ---------------------------------------------------------------------------

std::vector<detlint::Diagnostic> sample_diags() {
  return {
      {"src/core/a.cpp", 12, "D1", "wall-clock \"time()\" call", false},
      {"tools/detlint/baseline.txt", 0, "S1", "stale baseline entry", false},
      {"src/serve/b.cpp", 3, "D4", "raw '==' against 1.0", true},
  };
}

TEST(DetlintReport, RenderedSarifValidates) {
  std::ostringstream out;
  detlint::render_sarif(out, sample_diags());
  std::vector<std::string> errors;
  EXPECT_TRUE(detlint::validate_sarif(out.str(), &errors))
      << (errors.empty() ? "" : errors.front());
  // Baselined findings carry an external suppression; line-0 findings
  // clamp to startLine 1.
  EXPECT_NE(out.str().find("\"suppressions\": [{\"kind\": \"external\"}]"),
            std::string::npos);
  EXPECT_NE(out.str().find("\"startLine\": 1"), std::string::npos);
}

TEST(DetlintReport, EmptyRunSarifValidates) {
  std::ostringstream out;
  detlint::render_sarif(out, {});
  std::vector<std::string> errors;
  EXPECT_TRUE(detlint::validate_sarif(out.str(), &errors))
      << (errors.empty() ? "" : errors.front());
}

TEST(DetlintReport, ValidatorRejectsStructuralViolations) {
  std::vector<std::string> errors;
  EXPECT_FALSE(detlint::validate_sarif("not json at all", &errors));
  EXPECT_FALSE(detlint::validate_sarif("[]", nullptr));
  EXPECT_FALSE(detlint::validate_sarif(
      R"({"version": "2.0.0", "runs": [{"tool": {"driver": {"name": "x"}}}]})",
      nullptr))
      << "wrong version must fail";
  EXPECT_FALSE(detlint::validate_sarif(
      R"({"version": "2.1.0", "runs": []})", nullptr))
      << "empty runs must fail";
  EXPECT_FALSE(detlint::validate_sarif(
      R"({"version": "2.1.0", "runs": [{"tool": {"driver": {}}}]})",
      nullptr))
      << "missing driver name must fail";
  errors.clear();
  EXPECT_FALSE(detlint::validate_sarif(
      R"({"version": "2.1.0", "runs": [{"tool": {"driver": {"name": "x"}},
          "results": [{"ruleId": "D1", "message": {"text": "m"},
          "locations": [{"physicalLocation": {"artifactLocation":
          {"uri": "f.cpp"}, "region": {"startLine": 0}}}]}]}]})",
      &errors))
      << "startLine 0 must fail";
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("startLine"), std::string::npos);
}

TEST(DetlintReport, JsonRenderingIsStableAndComplete) {
  std::ostringstream out;
  detlint::render_json(out, sample_diags());
  const std::string json = out.str();
  EXPECT_NE(json.find("\"fresh\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"baselined\": 1"), std::string::npos);
  EXPECT_NE(json.find("\\\"time()\\\""), std::string::npos)
      << "quotes in messages must be escaped";
  std::ostringstream again;
  detlint::render_json(again, sample_diags());
  EXPECT_EQ(json, again.str());
}

TEST(DetlintTree, RepositoryIsCleanWithEmptyBaseline) {
  // The same invariant the detlint_tree ctest enforces, checked in-process
  // so a failure names the findings in the gtest log.
  const std::filesystem::path root = DETLINT_REPO_ROOT;
  auto diags = detlint::analyze_tree(root);
  const auto baseline = detlint::Baseline::load_file(
      (root / "tools" / "detlint" / "baseline.txt").string());
  EXPECT_EQ(baseline.size(), 0u) << "baseline must stay empty";
  detlint::apply_baseline(diags, baseline);
  std::string listing;
  for (const auto& d : diags) {
    if (!d.baselined) {
      listing += d.file + ":" + std::to_string(d.line) + ": " + d.rule + "\n";
    }
  }
  EXPECT_EQ(detlint::fresh_count(diags), 0u) << "tree findings:\n" << listing;
}

}  // namespace
