// detlint — determinism/invariant linter for the pushpull tree.
//
//   detlint [--root DIR] [--baseline FILE] [--json FILE] [--sarif FILE]
//           [--check] [--rules] [FILE...]
//
// With no FILE arguments, scans <root>/{src,tools,bench} and runs every
// pass: the per-file rules (D1-D5, L1, R1, R2), dead-suppression detection
// (S1), and the baseline ratchet (a baseline entry no finding matches is
// itself an S1 finding). With FILE arguments, only the named files are
// analyzed and the ratchet is skipped (a partial scan cannot judge
// staleness).
//
// Prints one `file:line: rule: message` diagnostic per finding and exits 1
// if any finding is not covered by the baseline (0 when clean, 2 on
// usage/IO error). `--json`/`--sarif` additionally write the full finding
// list (baselined included) to FILE; `--rules` prints the rule table and
// exits; `--check` additionally prints the rule table and baseline
// statistics before scanning.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "lint.hpp"
#include "report.hpp"

#ifndef DETLINT_DEFAULT_ROOT
#define DETLINT_DEFAULT_ROOT "."
#endif

namespace {

void usage() {
  std::cout <<
      R"(detlint — determinism/invariant linter (rules D1-D5, L1, R1-R2, S1)

usage: detlint [--root DIR] [--baseline FILE] [--json FILE] [--sarif FILE]
               [--check] [--rules] [FILE...]

  --root DIR       repo root to scan (default: the source tree detlint was
                   built from); FILE arguments are reported relative to it
  --baseline FILE  grandfathered findings, one `path:rule` per line
  --json FILE      write the finding list as JSON to FILE
  --sarif FILE     write the finding list as SARIF 2.1.0 to FILE
  --rules          print the rule table and exit
  --check          print the rule table and baseline stats, then scan
)";
}

std::string read_file(const std::filesystem::path& file, bool& ok) {
  std::ifstream in(file, std::ios::binary);
  ok = static_cast<bool>(in);
  if (!ok) return {};
  std::string text{std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>()};
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path root = DETLINT_DEFAULT_ROOT;
  std::string baseline_path;
  std::string json_path;
  std::string sarif_path;
  bool check = false;
  std::vector<std::filesystem::path> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--rules") {
      detlint::print_rule_table(std::cout);
      return 0;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "detlint: unknown option " << arg << "\n";
      usage();
      return 2;
    } else {
      files.emplace_back(arg);
    }
  }

  if (!std::filesystem::is_directory(root)) {
    std::cerr << "detlint: --root " << root.string()
              << " is not a directory\n";
    return 2;
  }
  if (baseline_path.empty()) {
    const std::filesystem::path candidate =
        root / "tools" / "detlint" / "baseline.txt";
    if (std::filesystem::exists(candidate)) {
      baseline_path = candidate.string();
    }
  }
  const detlint::Baseline baseline =
      detlint::Baseline::load_file(baseline_path);

  std::vector<detlint::Diagnostic> diags;
  if (files.empty()) {
    diags = detlint::analyze_tree(root);
  } else {
    const detlint::LayerConfig layers = detlint::LayerConfig::load_file(
        (root / "tools" / "detlint" / "layers.toml").string());
    const detlint::LayerConfig* layers_ptr =
        layers.empty() ? nullptr : &layers;
    for (const auto& file : files) {
      bool ok = false;
      const std::string text = read_file(file, ok);
      if (!ok) {
        std::cerr << "detlint: cannot read " << file.string() << "\n";
        return 2;
      }
      const std::filesystem::path rel =
          file.lexically_proximate(root).lexically_normal();
      const auto file_diags = detlint::analyze_source(
          rel.generic_string(), text, {}, layers_ptr);
      diags.insert(diags.end(), file_diags.begin(), file_diags.end());
    }
  }
  detlint::apply_baseline(diags, baseline);
  if (files.empty() && !baseline_path.empty()) {
    auto stale = detlint::baseline_ratchet(diags, baseline, baseline_path);
    diags.insert(diags.end(), stale.begin(), stale.end());
  }
  std::sort(diags.begin(), diags.end(),
            [](const detlint::Diagnostic& a, const detlint::Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "detlint: cannot write " << json_path << "\n";
      return 2;
    }
    detlint::render_json(out, diags);
  }
  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path);
    if (!out) {
      std::cerr << "detlint: cannot write " << sarif_path << "\n";
      return 2;
    }
    detlint::render_sarif(out, diags);
  }

  if (check) {
    detlint::print_rule_table(std::cout);
    std::cout << "baseline: " << baseline.size() << " entr"
              << (baseline.size() == 1 ? "y" : "ies")
              << (baseline_path.empty() ? " (no baseline file)"
                                        : " (" + baseline_path + ")")
              << "\n\n";
  }

  std::size_t baselined = 0;
  for (const auto& d : diags) {
    if (d.baselined) {
      ++baselined;
      continue;
    }
    std::cout << d.file << ":" << d.line << ": " << d.rule << ": "
              << d.message << "\n";
  }
  const std::size_t fresh = detlint::fresh_count(diags);
  if (check || fresh != 0) {
    std::cout << "detlint: " << fresh << " finding"
              << (fresh == 1 ? "" : "s") << ", " << baselined
              << " baselined\n";
  }
  return fresh == 0 ? 0 : 1;
}
