#pragma once

#include <cstddef>
#include <filesystem>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

/// detlint — the repo's determinism/invariant linter.
///
/// A token/lexer-based analyzer (no libclang) that enforces the project's
/// determinism contract on `src/`, `tools/` and `bench/`:
///
///   D1  no wall-clock / environment nondeterminism in simulation code
///       (std::random_device, time(), system_clock/steady_clock, rand(),
///       getenv, ...). One sanctioned boundary: src/serve/clock.cpp, the
///       wall backend behind the serve::Clock interface — real time is that
///       file's feature, and everything else (including the rest of
///       src/serve/) still reads time through the injected Clock
///   D2  no raw standard-library RNG engine construction outside src/rng/
///       — all randomness flows through rng::StreamFactory named streams
///   D3  no iteration over unordered_map/unordered_set (platform-dependent
///       order) unless routed through metrics::sorted_view
///   D4  no `float` (metrics accumulate in double) and no raw ==/!= against
///       floating-point literals outside approved helpers
///   D5  RNG stream purity in src/: engines are never passed by value,
///       never re-seeded or constructed from raw seeds outside src/rng/,
///       and never drawn from inside iteration over an unordered container
///   L1  include-graph layering: every `#include "layer/..."` edge must be
///       declared in the layer DAG (tools/detlint/layers.toml)
///   R1  no assert() in library code (src/) — throw std::logic_error with
///       context instead, so Release builds keep the check
///   R2  no `using namespace` in headers
///   S1  no dead suppressions: an inline `detlint:allow` that no longer
///       suppresses anything, and a baseline entry no finding matches, are
///       themselves findings (ratchet: a baseline may only shrink)
///
/// Suppression: `// detlint:allow(RULE[,RULE...]): reason` on the offending
/// line (trailing) or on the line above (standalone comment);
/// `// detlint:allow-file(RULE): reason` anywhere suppresses the rule for
/// the whole file. A checked-in baseline file (`path:rule` lines)
/// grandfathers findings without touching the source. S1 findings cannot
/// be allow()ed inline (a suppression that suppresses the dead-suppression
/// checker would be a paradox); park them in the baseline if they must be
/// deferred.
namespace detlint {

struct RuleInfo {
  std::string_view id;       ///< "D1" ... "R2"
  std::string_view name;     ///< short kebab-case name
  std::string_view summary;  ///< one-line description for the rule table
};

/// The rule table, in fixed D1..D5, L1, R1, R2, S1 order.
[[nodiscard]] const std::vector<RuleInfo>& rules();

struct Diagnostic {
  std::string file;  ///< repo-relative path, '/'-separated
  std::size_t line = 0;
  std::string rule;
  std::string message;
  bool baselined = false;  ///< matched a baseline entry — reported, not fatal
};

/// Grandfathered findings: one `path:rule` per line, `#` comments and blank
/// lines ignored. Paths are repo-relative with '/' separators.
class Baseline {
 public:
  [[nodiscard]] static Baseline parse(std::istream& in);
  /// Missing file loads as an empty baseline.
  [[nodiscard]] static Baseline load_file(const std::string& path);

  [[nodiscard]] bool covers(const Diagnostic& d) const {
    return entries_.count(d.file + ":" + d.rule) != 0;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::set<std::string>& entries() const noexcept {
    return entries_;
  }

 private:
  std::set<std::string> entries_;
};

/// The declared layer DAG for rule L1, parsed from a minimal TOML subset:
///
///   [layers]
///   rng = []
///   core = ["catalog", "des", ...]   # allowed include targets
///   cli = ["*"]                      # "*" = may include anything
///
///   [restricted]
///   exp = ["cli", "bench"]           # only these layers may include exp
///
/// Malformed lines, undeclared dependency names and cycles among the
/// declared layers are collected into `errors` (never thrown), and the
/// drivers surface them as L1 findings against the config file itself.
struct LayerConfig {
  std::map<std::string, std::set<std::string>> deps;
  std::map<std::string, std::set<std::string>> restricted;
  std::vector<std::string> errors;

  [[nodiscard]] bool empty() const noexcept {
    return deps.empty() && errors.empty();
  }

  [[nodiscard]] static LayerConfig parse(std::istream& in);
  /// Missing file loads as an empty config (L1 is skipped entirely).
  [[nodiscard]] static LayerConfig load_file(const std::string& path);
};

/// Names declared with an unordered_map/unordered_set type in `text`.
/// analyze_tree unions these across all scanned files so a .cpp iterating
/// a member its header declared unordered (the common split) still trips
/// D3.
[[nodiscard]] std::set<std::string> collect_unordered_names(
    std::string_view text);

/// Analyzes one translation unit's text. `path` must be repo-relative with
/// '/' separators — it drives the path-scoped rules (D2 is allowed under
/// src/rng/, R1 applies only under src/, R2 only to headers, D4's ==/!=
/// check skips approved helper files). `extra_unordered_names` extends
/// D3's locally-collected declaration set (see collect_unordered_names).
/// When `layers` is non-null the L1 include-graph pass runs too.
/// Diagnostics come back sorted by (line, rule).
[[nodiscard]] std::vector<Diagnostic> analyze_source(
    std::string_view path, std::string_view text,
    const std::set<std::string>& extra_unordered_names = {},
    const LayerConfig* layers = nullptr);

/// L1 findings for problems with the layer config itself (parse errors,
/// undeclared dependencies, cycles), reported against `config_path`.
[[nodiscard]] std::vector<Diagnostic> check_layer_config(
    const LayerConfig& layers, std::string_view config_path);

/// Walks root/{src,tools,bench} (skipping `fixtures`, `build` and hidden
/// directories), analyzing every .hpp/.h/.hh/.cpp/.cc file. Runs every
/// pass: the per-file rules and L1 against root/tools/detlint/layers.toml
/// (skipped when that file is absent). The result is sorted by (file, line, rule) so the linter's own
/// output is byte-stable across platforms.
[[nodiscard]] std::vector<Diagnostic> analyze_tree(
    const std::filesystem::path& root);

/// Flags diagnostics covered by `baseline` (sets Diagnostic::baselined).
void apply_baseline(std::vector<Diagnostic>& diags, const Baseline& baseline);

/// Ratchet semantics: a baseline may only shrink. Returns one S1 finding
/// (anchored at `baseline_path`, line 0) for every baseline entry that no
/// diagnostic in `diags` matched — a stale entry must be deleted, never
/// hoarded for future regressions. Run after apply_baseline, in tree mode
/// only (single-file runs see too few diagnostics to judge staleness).
[[nodiscard]] std::vector<Diagnostic> baseline_ratchet(
    const std::vector<Diagnostic>& diags, const Baseline& baseline,
    std::string baseline_path);

/// Count of diagnostics with baselined == false.
[[nodiscard]] std::size_t fresh_count(const std::vector<Diagnostic>& diags);

/// Pretty rule table (id, name, summary) for `detlint --check` and
/// `detlint --rules`.
void print_rule_table(std::ostream& out);

}  // namespace detlint
