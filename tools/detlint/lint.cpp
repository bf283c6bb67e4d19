#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iomanip>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <tuple>
#include <utility>

namespace detlint {

namespace {

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"D1", "no-wall-clock",
     "no std::random_device, time(), system_clock/steady_clock, rand(), "
     "getenv in simulation code (serve::Clock's wall backend in "
     "src/serve/clock.cpp is the one sanctioned boundary)"},
    {"D2", "named-rng-streams",
     "no raw std RNG engine construction outside src/rng/ — draw from "
     "rng::StreamFactory named streams"},
    {"D3", "ordered-emission",
     "no iteration over unordered_map/unordered_set (platform-dependent "
     "order) unless routed through metrics::sorted_view"},
    {"D4", "double-metrics",
     "no `float` and no raw ==/!= against floating-point literals outside "
     "approved helpers (metrics::exactly_equal)"},
    {"D5", "rng-stream-purity",
     "in src/: engines never passed by value, never re-seeded/constructed "
     "from raw seeds outside src/rng/, never drawn inside iteration over an "
     "unordered container"},
    {"L1", "layer-dag",
     "every #include \"layer/...\" edge must be declared in the layer DAG "
     "(tools/detlint/layers.toml)"},
    {"R1", "throw-not-assert",
     "no assert() in library code (src/) — throw std::logic_error with "
     "context so Release builds keep the check"},
    {"R2", "no-using-namespace-in-headers",
     "no `using namespace` at any scope in a header file"},
    {"S1", "no-dead-suppressions",
     "a detlint:allow that suppresses nothing, and a baseline entry no "
     "finding matches, are themselves findings (a baseline only shrinks)"},
};

/// The engine-owned RNG type D5 polices. Standard-library engines are
/// already banned wholesale by D2, so only the project engine needs
/// dataflow treatment.
const std::set<std::string_view> kProjectEngines = {"Xoshiro256ss"};

/// Free draw helpers (src/rng/) whose call sites D5 treats as stream
/// consumption.
const std::set<std::string_view> kDrawFns = {"uniform", "exponential",
                                             "poisson", "zipf"};

/// Files where D4's raw floating-point comparison is the implementation of
/// the approved helper itself.
const std::vector<std::string_view> kFloatCompareHelpers = {
    "src/metrics/float_compare.hpp",
};

/// Files where D1's wall-clock read is the sanctioned time boundary itself:
/// serve::Clock's wall backend. Everything else — including the rest of
/// src/serve/ — must go through the serve::Clock interface, so a stray
/// steady_clock read outside this file still flags.
const std::vector<std::string_view> kWallClockBoundary = {
    "src/serve/clock.cpp",
};

// ---------------------------------------------------------------------------
// Lexer: blank comments and literals, collect suppressions
// ---------------------------------------------------------------------------

/// One detlint:allow / detlint:allow-file occurrence, kept in source order
/// so S1 can point at the exact dead directive.
struct AllowDirective {
  std::size_t line = 0;  ///< line the directive starts on
  std::string rule;
  bool file_wide = false;
  bool standalone = false;  ///< covers its own line and the next
};

struct Suppressions {
  /// line number -> rule ids allowed on that line
  std::map<std::size_t, std::set<std::string>> by_line;
  std::set<std::string> file_wide;
  std::vector<AllowDirective> directives;

  [[nodiscard]] bool allows(const std::string& rule, std::size_t line) const {
    if (file_wide.count(rule) != 0) return true;
    const auto it = by_line.find(line);
    return it != by_line.end() && it->second.count(rule) != 0;
  }
};

/// First index of the comment's content: past the `//`/`/*` delimiters and
/// leading whitespace/decoration. Directives only count when anchored here — prose that merely *mentions* the syntax (like this
/// linter's own documentation) must not parse as the real thing.
std::size_t comment_content_start(std::string_view comment) {
  std::size_t i = 0;
  while (i < comment.size() &&
         (comment[i] == '/' || comment[i] == '*' ||
          std::isspace(static_cast<unsigned char>(comment[i])))) {
    ++i;
  }
  return i;
}

/// Parses `detlint:allow(D1,D4)` / `detlint:allow-file(D1)` directives out
/// of one comment's text and registers them. A standalone comment (nothing
/// but whitespace before it on its starting line) covers its own line and
/// the next; a trailing comment covers only its own line. The directive
/// must be the first thing in the comment (see comment_content_start).
void collect_directives(std::string_view comment, std::size_t start_line,
                        bool standalone, Suppressions& sup) {
  static constexpr std::string_view kAllow = "detlint:allow";
  const std::size_t pos = comment.find(kAllow);
  if (pos == std::string_view::npos ||
      pos != comment_content_start(comment)) {
    return;
  }
  std::size_t i = pos + kAllow.size();
  const bool file_wide = comment.substr(i, 5) == "-file";
  if (file_wide) i += 5;
  if (i >= comment.size() || comment[i] != '(') return;
  const std::size_t close = comment.find(')', i);
  if (close == std::string_view::npos) return;
  std::string rule;
  auto flush = [&] {
    if (rule.empty()) return;
    if (file_wide) {
      sup.file_wide.insert(rule);
    } else {
      sup.by_line[start_line].insert(rule);
      if (standalone) sup.by_line[start_line + 1].insert(rule);
    }
    sup.directives.push_back({start_line, rule, file_wide, standalone});
    rule.clear();
  };
  for (std::size_t j = i + 1; j < close; ++j) {
    const char c = comment[j];
    if (c == ',' || c == ' ' || c == '\t') {
      flush();
    } else {
      rule += c;
    }
  }
  flush();
}

/// `text` with comments, string literals and char literals replaced by
/// spaces (newlines preserved, so offsets and line numbers are unchanged),
/// plus the suppression directives found in comments.
struct Prepared {
  std::string code;
  Suppressions suppressions;
};

Prepared strip_comments_and_literals(std::string_view text) {
  Prepared out;
  out.code.assign(text.size(), ' ');
  std::size_t line = 1;
  bool line_has_code = false;  // non-whitespace code seen on current line

  auto keep = [&](std::size_t i) { out.code[i] = text[i]; };

  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == '\n') {
      out.code[i] = '\n';
      ++line;
      line_has_code = false;
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      const std::size_t start = i;
      while (i < text.size() && text[i] != '\n') ++i;
      collect_directives(text.substr(start, i - start), line, !line_has_code,
                         out.suppressions);
      continue;
    }
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '*') {
      const std::size_t start = i;
      const std::size_t start_line = line;
      const bool standalone = !line_has_code;
      i += 2;
      while (i + 1 < text.size() && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') {
          out.code[i] = '\n';
          ++line;
        }
        ++i;
      }
      i = std::min(i + 2, text.size());
      collect_directives(text.substr(start, i - start), start_line, standalone,
                         out.suppressions);
      continue;
    }
    if (c == '"' || c == '\'') {
      // Raw string literal? (R"delim( ... )delim")
      if (c == '"' && i >= 1 && text[i - 1] == 'R') {
        std::size_t d = i + 1;
        while (d < text.size() && text[d] != '(') ++d;
        // Built with append() — chained operator+ here trips GCC 12's
        // spurious -Wrestrict under -O2.
        std::string closer;
        closer.reserve(d - i + 1);
        closer += ')';
        closer.append(text.substr(i + 1, d - i - 1));
        closer += '"';
        const std::size_t end = text.find(closer, d);
        const std::size_t stop = end == std::string_view::npos
                                     ? text.size()
                                     : end + closer.size();
        for (; i < stop; ++i) {
          if (text[i] == '\n') {
            out.code[i] = '\n';
            ++line;
          }
        }
        line_has_code = true;
        continue;
      }
      const char quote = c;
      keep(i);  // keep the delimiter so tokens stay separated
      ++i;
      while (i < text.size() && text[i] != quote && text[i] != '\n') {
        i += text[i] == '\\' ? std::size_t{2} : std::size_t{1};
      }
      if (i < text.size() && text[i] == quote) {
        keep(i);
        ++i;
      }
      line_has_code = true;
      continue;
    }
    keep(i);
    if (!std::isspace(static_cast<unsigned char>(c))) line_has_code = true;
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class Tok { kIdent, kNumber, kPunct };

struct Token {
  Tok kind;
  std::string_view text;
  std::size_t line;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<Token> tokenize(std::string_view code) {
  std::vector<Token> toks;
  std::size_t line = 1;
  std::size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (ident_start(c)) {
      const std::size_t start = i;
      while (i < code.size() && ident_char(code[i])) ++i;
      toks.push_back({Tok::kIdent, code.substr(start, i - start), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < code.size() &&
         std::isdigit(static_cast<unsigned char>(code[i + 1])))) {
      const std::size_t start = i;
      // pp-number: digits, letters, dots, and exponent signs.
      while (i < code.size() &&
             (ident_char(code[i]) || code[i] == '.' || code[i] == '\'' ||
              ((code[i] == '+' || code[i] == '-') && i > start &&
               (code[i - 1] == 'e' || code[i - 1] == 'E' ||
                code[i - 1] == 'p' || code[i - 1] == 'P')))) {
        ++i;
      }
      toks.push_back({Tok::kNumber, code.substr(start, i - start), line});
      continue;
    }
    // Multi-char punctuators the rules care about; everything else single.
    static constexpr std::string_view kTwo[] = {"::", "->", "==", "!=", "<=",
                                                ">=", "&&", "||"};
    std::size_t len = 1;
    for (const auto two : kTwo) {
      if (code.substr(i, 2) == two) {
        len = 2;
        break;
      }
    }
    toks.push_back({Tok::kPunct, code.substr(i, len), line});
    i += len;
  }
  return toks;
}

bool is_float_literal(const Token& t) {
  if (t.kind != Tok::kNumber) return false;
  const std::string_view s = t.text;
  const bool hex = s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
  if (s.find('.') != std::string_view::npos) return true;
  if (hex) return s.find_first_of("pP") != std::string_view::npos;
  return s.find_first_of("eE") != std::string_view::npos;
}

// ---------------------------------------------------------------------------
// Path predicates
// ---------------------------------------------------------------------------

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool is_header(std::string_view path) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string_view::npos) return false;
  const std::string_view ext = path.substr(dot);
  return ext == ".hpp" || ext == ".h" || ext == ".hh";
}

// ---------------------------------------------------------------------------
// Rule passes
// ---------------------------------------------------------------------------

/// Pass A of rule D3: names declared with an unordered container type.
std::set<std::string> unordered_names_in(const std::vector<Token>& toks) {
  static const std::set<std::string_view> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  std::set<std::string> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent || kUnordered.count(toks[i].text) == 0)
      continue;
    std::size_t j = i + 1;
    if (j >= toks.size() || toks[j].text != "<") continue;
    int depth = 0;
    for (; j < toks.size(); ++j) {
      if (toks[j].kind != Tok::kPunct) continue;
      if (toks[j].text == "<") ++depth;
      for (const char ch : toks[j].text) {
        if (ch == '>') --depth;  // counts both ">" and the ">>" token
      }
      if (depth <= 0 || toks[j].text == ";") break;
    }
    // `unordered_map<K, V> name` (possibly `&`/`*`-qualified).
    for (std::size_t k = j + 1; k < toks.size(); ++k) {
      if (toks[k].kind == Tok::kIdent) {
        names.insert(std::string(toks[k].text));
        break;
      }
      if (toks[k].kind == Tok::kPunct &&
          (toks[k].text == "&" || toks[k].text == "*")) {
        continue;
      }
      break;
    }
  }
  return names;
}

class Analysis {
 public:
  Analysis(std::string_view path, std::string_view raw_text,
           const Prepared& prepared, const std::vector<Token>& toks,
           const std::set<std::string>& extra_names, const LayerConfig* layers)
      : path_(path),
        raw_text_(raw_text),
        toks_(toks),
        sup_(prepared.suppressions),
        extra_names_(extra_names),
        layers_(layers) {}

  [[nodiscard]] std::vector<Diagnostic> run() {
    check_d1();
    check_d2();
    check_d3();
    check_d4();
    check_d5();
    check_l1();
    check_r1();
    check_r2();
    check_s1();  // last: judges the suppressed-hit ledger the others fed
    std::sort(diags_.begin(), diags_.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
              });
    return std::move(diags_);
  }

 private:
  void report(const char* rule, std::size_t line, std::string message) {
    if (sup_.allows(rule, line)) {
      suppressed_.insert({rule, line});
      return;
    }
    diags_.push_back({std::string(path_), line, rule, std::move(message)});
  }

  /// For S1 findings, which must not be allow()able (suppressing the
  /// dead-suppression checker would be a paradox).
  void report_hard(const char* rule, std::size_t line, std::string message) {
    diags_.push_back({std::string(path_), line, rule, std::move(message)});
  }

  [[nodiscard]] const Token* prev(std::size_t i) const {
    return i == 0 ? nullptr : &toks_[i - 1];
  }
  [[nodiscard]] const Token* next(std::size_t i) const {
    return i + 1 < toks_.size() ? &toks_[i + 1] : nullptr;
  }

  [[nodiscard]] bool called(std::size_t i) const {
    const Token* n = next(i);
    return n != nullptr && n->kind == Tok::kPunct && n->text == "(";
  }
  [[nodiscard]] bool member_access(std::size_t i) const {
    const Token* p = prev(i);
    return p != nullptr && p->kind == Tok::kPunct &&
           (p->text == "." || p->text == "->");
  }
  /// `double time() const` declares a member named like a libc function —
  /// a preceding identifier that is not `return` marks a declaration, not
  /// a call.
  [[nodiscard]] bool declaration_like(std::size_t i) const {
    const Token* p = prev(i);
    return p != nullptr && p->kind == Tok::kIdent && p->text != "return";
  }

  // D1: wall clock / environment nondeterminism.
  void check_d1() {
    for (const auto boundary : kWallClockBoundary) {
      if (path_ == boundary) return;  // the sanctioned serve::Clock backend
    }
    static const std::set<std::string_view> kAlways = {
        "random_device",         "system_clock", "steady_clock",
        "high_resolution_clock", "getenv",       "gettimeofday",
        "timespec_get",          "clock_gettime"};
    // Flagged only as free-function calls, so `event.time`, `next_time()`
    // and member `clock()` accessors stay legal.
    static const std::set<std::string_view> kCallOnly = {"time", "clock",
                                                         "rand", "srand"};
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != Tok::kIdent) continue;
      if (kAlways.count(t.text) != 0) {
        report("D1", t.line,
               "nondeterministic source '" + std::string(t.text) +
                   "' in simulation code; derive everything from the "
                   "scenario seed");
      } else if (kCallOnly.count(t.text) != 0 && called(i) &&
                 !member_access(i) && !declaration_like(i)) {
        report("D1", t.line,
               "wall-clock/libc call '" + std::string(t.text) +
                   "()' in simulation code; derive everything from the "
                   "scenario seed");
      }
    }
  }

  // D2: std RNG engines outside src/rng/.
  void check_d2() {
    if (starts_with(path_, "src/rng/")) return;
    static const std::set<std::string_view> kEngines = {
        "mt19937",        "mt19937_64",    "minstd_rand",
        "minstd_rand0",   "knuth_b",       "default_random_engine",
        "ranlux24",       "ranlux24_base", "ranlux48",
        "ranlux48_base",  "seed_seq"};
    for (const Token& t : toks_) {
      if (t.kind == Tok::kIdent && kEngines.count(t.text) != 0) {
        report("D2", t.line,
               "raw std RNG engine '" + std::string(t.text) +
                   "' outside src/rng/; draw from a rng::StreamFactory "
                   "named stream instead");
      }
    }
  }

  // D3: range-for over a name declared as an unordered container — locally
  // or (via extra_names_) anywhere in the scanned tree.
  void check_d3() {
    std::set<std::string> unordered_names = unordered_names_in(toks_);
    unordered_names.insert(extra_names_.begin(), extra_names_.end());
    if (unordered_names.empty()) return;

    // Pass B: range-for whose range expression names one of them.
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (toks_[i].kind != Tok::kIdent || toks_[i].text != "for") continue;
      if (toks_[i + 1].text != "(") continue;
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < toks_.size(); ++j) {
        if (toks_[j].kind != Tok::kPunct) continue;
        if (toks_[j].text == "(") ++depth;
        if (toks_[j].text == ")" && --depth == 0) {
          close = j;
          break;
        }
        if (toks_[j].text == ":" && depth == 1 && colon == 0) colon = j;
      }
      if (colon == 0 || close == 0) continue;  // not a range-for
      bool sorted = false;
      const Token* offender = nullptr;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks_[j].kind != Tok::kIdent) continue;
        if (toks_[j].text == "sorted_view") sorted = true;
        if (unordered_names.count(std::string(toks_[j].text)) != 0) {
          offender = &toks_[j];
        }
      }
      if (offender != nullptr && !sorted) {
        report("D3", offender->line,
               "iteration over unordered container '" +
                   std::string(offender->text) +
                   "' has platform-dependent order; route through "
                   "metrics::sorted_view");
      }
    }
  }

  // D4: float keyword; raw ==/!= against floating-point literals.
  void check_d4() {
    for (const Token& t : toks_) {
      if (t.kind == Tok::kIdent && t.text == "float") {
        report("D4", t.line,
               "'float' loses precision in metric accumulation; this "
               "codebase is double-only");
      }
    }
    for (const auto helper : kFloatCompareHelpers) {
      if (path_ == helper) return;  // the approved helper implementation
    }
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind != Tok::kPunct || (t.text != "==" && t.text != "!=")) {
        continue;
      }
      const Token* p = prev(i);
      const Token* n = next(i);
      // Look through a unary sign: `x == -1.0`.
      if (n != nullptr && n->kind == Tok::kPunct &&
          (n->text == "-" || n->text == "+")) {
        n = i + 2 < toks_.size() ? &toks_[i + 2] : nullptr;
      }
      if ((p != nullptr && is_float_literal(*p)) ||
          (n != nullptr && is_float_literal(*n))) {
        report("D4", t.line,
               "raw '" + std::string(t.text) +
                   "' against a floating-point literal; use "
                   "metrics::exactly_equal / approx_equal (or justify with "
                   "a suppression)");
      }
    }
  }

  // R1: assert() in library code.
  void check_r1() {
    if (!starts_with(path_, "src/")) return;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind == Tok::kIdent && t.text == "assert" && called(i)) {
        report("R1", t.line,
               "assert() vanishes under NDEBUG; throw std::logic_error with "
               "context (PR 2 convention)");
      }
    }
  }

  // R2: using namespace in headers.
  void check_r2() {
    if (!is_header(path_)) return;
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (toks_[i].kind == Tok::kIdent && toks_[i].text == "using" &&
          toks_[i + 1].kind == Tok::kIdent &&
          toks_[i + 1].text == "namespace") {
        report("R2", toks_[i].line,
               "'using namespace' in a header leaks into every includer");
      }
    }
  }

  // D5: RNG stream purity. Scope: src/ minus src/rng/ (the stream factory
  // is the one place allowed to construct and seed engines).
  void check_d5() {
    if (!starts_with(path_, "src/") || starts_with(path_, "src/rng/")) return;

    // (a) engine passed by value: inside a parameter/argument list, the
    // engine type name followed directly by an identifier and then a
    // list-ish delimiter (`,` `)` `=`). A `&`/`*`/`&&` between type and
    // name makes it a reference/pointer and is fine.
    int paren_depth = 0;
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind == Tok::kPunct) {
        if (t.text == "(") ++paren_depth;
        if (t.text == ")") --paren_depth;
        continue;
      }
      if (t.kind != Tok::kIdent || kProjectEngines.count(t.text) == 0) {
        continue;
      }
      if (paren_depth > 0) {
        const Token* n = next(i);
        if (n != nullptr && n->kind == Tok::kIdent) {
          const Token* after =
              i + 2 < toks_.size() ? &toks_[i + 2] : nullptr;
          if (after != nullptr && after->kind == Tok::kPunct &&
              (after->text == "," || after->text == ")" ||
               after->text == "=")) {
            report("D5", t.line,
                   "engine '" + std::string(t.text) +
                       "' passed by value forks the stream (both copies "
                       "replay the same draws); pass by reference or a "
                       "rng::StreamFactory handle");
          }
        }
      }
      // (b) engine constructed from a raw seed outside src/rng/:
      // `Xoshiro256ss(...)` as a call/construction (not a declaration of a
      // reference parameter etc. — those are caught above or harmless).
      if (called(i) && !member_access(i)) {
        report("D5", t.line,
               "engine '" + std::string(t.text) +
                   "' constructed outside src/rng/; derive streams from "
                   "rng::StreamFactory so seeds stay centrally scheduled");
      }
    }

    // (b') re-seeding a live engine: member `.seed(` / `->seed(` call.
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind == Tok::kIdent && t.text == "seed" && called(i) &&
          member_access(i)) {
        report("D5", t.line,
               "re-seeding a live engine resets its stream mid-run; derive "
               "a fresh named stream from rng::StreamFactory instead");
      }
    }

    // (c) drawing inside iteration over an unordered container: a kDrawFns
    // call lexically inside a range-for whose range names an
    // unordered-declared variable. Flagged even through sorted_view — the
    // *emission* order is fixed by sorting, but the draw-to-key binding
    // still depends on hash order.
    std::set<std::string> unordered_names = unordered_names_in(toks_);
    unordered_names.insert(extra_names_.begin(), extra_names_.end());
    if (unordered_names.empty()) return;
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (toks_[i].kind != Tok::kIdent || toks_[i].text != "for") continue;
      if (toks_[i + 1].text != "(") continue;
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < toks_.size(); ++j) {
        if (toks_[j].kind != Tok::kPunct) continue;
        if (toks_[j].text == "(") ++depth;
        if (toks_[j].text == ")" && --depth == 0) {
          close = j;
          break;
        }
        if (toks_[j].text == ":" && depth == 1 && colon == 0) colon = j;
      }
      if (colon == 0 || close == 0) continue;  // not a range-for
      bool over_unordered = false;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks_[j].kind == Tok::kIdent &&
            unordered_names.count(std::string(toks_[j].text)) != 0) {
          over_unordered = true;
        }
      }
      if (!over_unordered) continue;
      // Loop body: the braced block right after the close paren.
      std::size_t body_open = close + 1;
      if (body_open >= toks_.size() || toks_[body_open].text != "{") continue;
      int braces = 0;
      for (std::size_t j = body_open; j < toks_.size(); ++j) {
        if (toks_[j].kind == Tok::kPunct) {
          if (toks_[j].text == "{") ++braces;
          if (toks_[j].text == "}" && --braces == 0) break;
          continue;
        }
        if (toks_[j].kind == Tok::kIdent && kDrawFns.count(toks_[j].text) != 0 &&
            called(j)) {
          report("D5", toks_[j].line,
                 "RNG draw '" + std::string(toks_[j].text) +
                     "()' inside iteration over an unordered container binds "
                     "draws to hash order; iterate a sorted copy or draw "
                     "before the loop");
        }
      }
    }
  }

  // L1: every quoted include's first path segment must be a declared layer
  // edge. Scans the raw text — the stripped buffer blanked the include
  // paths along with every other string literal.
  void check_l1() {
    if (layers_ == nullptr || layers_->empty()) return;
    const std::string layer = layer_of(path_);
    if (layer.empty()) return;
    // Only declared layers are policed, on both ends of the edge — an
    // undeclared source directory is unlayered, same as an undeclared
    // include target.
    const auto deps_it = layers_->deps.find(layer);
    if (deps_it == layers_->deps.end()) return;
    const bool wildcard = deps_it->second.count("*") != 0;

    std::size_t line = 1;
    std::size_t pos = 0;
    const std::string_view text = raw_text_;
    while (pos < text.size()) {
      const std::size_t eol = text.find('\n', pos);
      const std::size_t end = eol == std::string_view::npos ? text.size() : eol;
      std::string_view l = text.substr(pos, end - pos);
      // `#include "target/..."` — system includes are out of scope.
      const std::size_t hash = l.find_first_not_of(" \t");
      if (hash != std::string_view::npos && l[hash] == '#' &&
          l.find("include", hash) != std::string_view::npos) {
        const std::size_t q1 = l.find('"');
        const std::size_t q2 =
            q1 == std::string_view::npos ? q1 : l.find('"', q1 + 1);
        if (q2 != std::string_view::npos) {
          const std::string_view target = l.substr(q1 + 1, q2 - q1 - 1);
          const std::size_t slash = target.find('/');
          if (slash != std::string_view::npos) {
            const std::string target_layer(target.substr(0, slash));
            check_include_edge(layer, target_layer, line, wildcard, deps_it);
          }
        }
      }
      if (eol == std::string_view::npos) break;
      pos = eol + 1;
      ++line;
    }
  }

  void check_include_edge(
      const std::string& layer, const std::string& target, std::size_t line,
      bool wildcard,
      std::map<std::string, std::set<std::string>>::const_iterator deps_it) {
    if (layers_->deps.count(target) == 0) return;  // not a declared layer
    // Restricted layers trump wildcards: `exp` is includable only by the
    // layers its [restricted] entry lists.
    const auto restricted = layers_->restricted.find(target);
    if (restricted != layers_->restricted.end() &&
        restricted->second.count(layer) == 0 && layer != target) {
      report("L1", line,
             "layer '" + layer + "' may not include restricted layer '" +
                 target + "' (tools/detlint/layers.toml [restricted])");
      return;
    }
    if (layer == target || wildcard) return;
    if (deps_it == layers_->deps.end() ||
        deps_it->second.count(target) == 0) {
      report("L1", line,
             "undeclared layer edge " + layer + " -> " + target +
                 "; declare it in tools/detlint/layers.toml or break the "
                 "dependency");
    }
  }

  /// Maps a repo-relative path to its layer name; empty = unlayered (tests,
  /// fixtures) and L1 does not apply.
  [[nodiscard]] static std::string layer_of(std::string_view path) {
    if (starts_with(path, "src/")) {
      const std::string_view rest = path.substr(4);
      const std::size_t slash = rest.find('/');
      if (slash != std::string_view::npos) {
        return std::string(rest.substr(0, slash));
      }
      return {};
    }
    if (starts_with(path, "tools/detlint/")) return "detlint";
    if (starts_with(path, "tools/")) return "cli";
    if (starts_with(path, "bench/")) return "bench";
    return {};
  }

  // S1 (per-file half): every allow directive must have suppressed at least
  // one finding this run. Runs last so the ledger is complete.
  void check_s1() {
    for (const AllowDirective& d : sup_.directives) {
      bool used = false;
      if (d.file_wide) {
        for (const auto& hit : suppressed_) {
          if (hit.first == d.rule) {
            used = true;
            break;
          }
        }
      } else {
        used = suppressed_.count({d.rule, d.line}) != 0 ||
               (d.standalone && suppressed_.count({d.rule, d.line + 1}) != 0);
      }
      if (!used) {
        report_hard("S1", d.line,
                    "dead suppression: detlint:allow" +
                        std::string(d.file_wide ? "-file" : "") + "(" +
                        d.rule + ") no longer suppresses anything — delete "
                        "it");
      }
    }
  }

  std::string_view path_;
  std::string_view raw_text_;
  const std::vector<Token>& toks_;
  const Suppressions& sup_;
  const std::set<std::string>& extra_names_;
  const LayerConfig* layers_ = nullptr;
  std::set<std::pair<std::string, std::size_t>> suppressed_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rules() { return kRules; }

std::set<std::string> collect_unordered_names(std::string_view text) {
  const Prepared prepared = strip_comments_and_literals(text);
  return unordered_names_in(tokenize(prepared.code));
}

std::vector<Diagnostic> analyze_source(
    std::string_view path, std::string_view text,
    const std::set<std::string>& extra_unordered_names,
    const LayerConfig* layers) {
  const Prepared prepared = strip_comments_and_literals(text);
  const std::vector<Token> toks = tokenize(prepared.code);
  return Analysis(path, text, prepared, toks, extra_unordered_names, layers)
      .run();
}

// ---------------------------------------------------------------------------
// L1: layer config
// ---------------------------------------------------------------------------

namespace {

/// `name = ["a", "b"]` → (name, {a, b}). Returns false on malformed lines.
bool parse_toml_list(const std::string& line, std::string& name,
                     std::set<std::string>& values) {
  const std::size_t eq = line.find('=');
  if (eq == std::string::npos) return false;
  name.clear();
  for (const char c : line.substr(0, eq)) {
    if (!std::isspace(static_cast<unsigned char>(c))) name += c;
  }
  if (name.empty()) return false;
  const std::size_t open = line.find('[', eq);
  const std::size_t close = line.find(']', eq);
  if (open == std::string::npos || close == std::string::npos || close < open) {
    return false;
  }
  values.clear();
  std::string cur;
  bool in_quotes = false;
  for (std::size_t i = open + 1; i < close; ++i) {
    const char c = line[i];
    if (c == '"') {
      if (in_quotes && !cur.empty()) values.insert(cur);
      if (in_quotes) cur.clear();
      in_quotes = !in_quotes;
    } else if (in_quotes) {
      cur += c;
    } else if (c != ',' && !std::isspace(static_cast<unsigned char>(c))) {
      return false;  // bare (unquoted) junk between entries
    }
  }
  return !in_quotes;
}

}  // namespace

LayerConfig LayerConfig::parse(std::istream& in) {
  LayerConfig config;
  std::string line;
  std::string section;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const std::size_t last = line.find_last_not_of(" \t\r");
    const std::string body = line.substr(first, last - first + 1);
    if (body.front() == '[') {
      if (body.back() != ']') {
        config.errors.push_back("line " + std::to_string(line_no) +
                                ": malformed section header '" + body + "'");
        continue;
      }
      section = body.substr(1, body.size() - 2);
      if (section != "layers" && section != "restricted") {
        config.errors.push_back("line " + std::to_string(line_no) +
                                ": unknown section [" + section + "]");
      }
      continue;
    }
    std::string name;
    std::set<std::string> values;
    if (!parse_toml_list(body, name, values)) {
      config.errors.push_back("line " + std::to_string(line_no) +
                              ": expected `name = [\"dep\", ...]`, got '" +
                              body + "'");
      continue;
    }
    if (section == "layers") {
      config.deps[name] = std::move(values);
    } else if (section == "restricted") {
      config.restricted[name] = std::move(values);
    } else {
      config.errors.push_back("line " + std::to_string(line_no) +
                              ": entry '" + name +
                              "' outside [layers]/[restricted]");
    }
  }

  // Every named dependency (and restricted subject) must itself be a
  // declared layer — a typo would silently disable checking for that edge.
  for (const auto& [layer, deps] : config.deps) {
    for (const auto& dep : deps) {
      if (dep != "*" && config.deps.count(dep) == 0) {
        config.errors.push_back("layer '" + layer +
                                "' depends on undeclared layer '" + dep + "'");
      }
    }
  }
  for (const auto& [layer, includers] : config.restricted) {
    if (config.deps.count(layer) == 0) {
      config.errors.push_back("[restricted] names undeclared layer '" +
                              layer + "'");
    }
    for (const auto& inc : includers) {
      if (config.deps.count(inc) == 0) {
        config.errors.push_back("[restricted] " + layer +
                                " lists undeclared layer '" + inc + "'");
      }
    }
  }

  // Cycle check over the declared edges (wildcard layers excluded — cli and
  // bench may include anything and nothing may include them back anyway).
  // Iterative DFS with an explicit color map.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> order;
  for (const auto& [layer, deps] : config.deps) order.push_back(layer);
  for (const auto& start : order) {
    if (color[start] != 0) continue;
    std::vector<std::pair<std::string, bool>> stack = {{start, false}};
    while (!stack.empty()) {
      auto [node, done] = stack.back();
      stack.pop_back();
      if (done) {
        color[node] = 2;
        continue;
      }
      if (color[node] == 2) continue;
      if (color[node] == 1) continue;
      color[node] = 1;
      stack.push_back({node, true});
      const auto it = config.deps.find(node);
      if (it == config.deps.end() || it->second.count("*") != 0) continue;
      for (const auto& dep : it->second) {
        if (config.deps.count(dep) == 0) continue;
        if (color[dep] == 1) {
          config.errors.push_back("layer cycle: '" + node + "' -> '" + dep +
                                  "' closes a loop");
        } else if (color[dep] == 0) {
          stack.push_back({dep, false});
        }
      }
    }
  }
  return config;
}

LayerConfig LayerConfig::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return LayerConfig{};
  return parse(in);
}

std::vector<Diagnostic> check_layer_config(const LayerConfig& layers,
                                           std::string_view config_path) {
  std::vector<Diagnostic> diags;
  for (const auto& err : layers.errors) {
    diags.push_back({std::string(config_path), 0, "L1", err, false});
  }
  return diags;
}

namespace {

std::string read_or_empty(const std::filesystem::path& file, bool& ok) {
  std::ifstream in(file, std::ios::binary);
  ok = static_cast<bool>(in);
  if (!ok) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

}  // namespace

std::vector<Diagnostic> analyze_tree(const std::filesystem::path& root) {
  static const std::vector<std::string> kSubdirs = {"src", "tools", "bench"};
  static const std::set<std::string> kExtensions = {".hpp", ".h", ".hh",
                                                    ".cpp", ".cc"};
  std::vector<std::filesystem::path> files;
  for (const auto& sub : kSubdirs) {
    const std::filesystem::path dir = root / sub;
    if (!std::filesystem::is_directory(dir)) continue;
    for (auto it = std::filesystem::recursive_directory_iterator(dir);
         it != std::filesystem::recursive_directory_iterator(); ++it) {
      const std::filesystem::directory_entry& entry = *it;
      const std::string name = entry.path().filename().string();
      if (entry.is_directory() &&
          (name == "fixtures" || name == "build" ||
           (!name.empty() && name.front() == '.'))) {
        it.disable_recursion_pending();
        continue;
      }
      if (entry.is_regular_file() &&
          kExtensions.count(entry.path().extension().string()) != 0) {
        files.push_back(entry.path());
      }
    }
  }
  // Directory iteration order is unspecified — sort so the linter's own
  // output is deterministic.
  std::sort(files.begin(), files.end());

  // Phase 1: union the unordered-container declarations across every file,
  // so a .cpp iterating a member its header declared unordered still trips
  // D3 (lexical analysis has no cross-TU view otherwise).
  std::vector<std::string> texts;
  texts.reserve(files.size());
  std::set<std::string> tree_unordered_names;
  for (const auto& file : files) {
    bool ok = false;
    texts.push_back(read_or_empty(file, ok));
    const auto names = collect_unordered_names(texts.back());
    tree_unordered_names.insert(names.begin(), names.end());
  }

  // Phase 2: analyze with the global declaration set.
  const std::string layers_path =
      (root / "tools" / "detlint" / "layers.toml").string();
  const LayerConfig layers = LayerConfig::load_file(layers_path);
  const LayerConfig* layers_ptr = layers.empty() ? nullptr : &layers;

  std::vector<Diagnostic> diags;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::filesystem::path rel =
        files[i].lexically_proximate(root).lexically_normal();
    auto file_diags = analyze_source(rel.generic_string(), texts[i],
                                     tree_unordered_names, layers_ptr);
    diags.insert(diags.end(), std::make_move_iterator(file_diags.begin()),
                 std::make_move_iterator(file_diags.end()));
  }

  if (layers_ptr != nullptr) {
    auto config_diags =
        check_layer_config(layers, "tools/detlint/layers.toml");
    diags.insert(diags.end(), std::make_move_iterator(config_diags.begin()),
                 std::make_move_iterator(config_diags.end()));
  }

  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return diags;
}

Baseline Baseline::parse(std::istream& in) {
  Baseline b;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t end = line.find('#');
    std::string entry = line.substr(0, end);
    entry.erase(std::remove_if(entry.begin(), entry.end(),
                               [](unsigned char c) { return std::isspace(c); }),
                entry.end());
    if (!entry.empty()) b.entries_.insert(entry);
  }
  return b;
}

Baseline Baseline::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Baseline{};
  return parse(in);
}

void apply_baseline(std::vector<Diagnostic>& diags, const Baseline& baseline) {
  for (auto& d : diags) d.baselined = baseline.covers(d);
}

std::vector<Diagnostic> baseline_ratchet(const std::vector<Diagnostic>& diags,
                                         const Baseline& baseline,
                                         std::string baseline_path) {
  std::set<std::string> matched;
  for (const auto& d : diags) {
    if (d.baselined) matched.insert(d.file + ":" + d.rule);
  }
  std::vector<Diagnostic> stale;
  for (const auto& entry : baseline.entries()) {
    if (matched.count(entry) != 0) continue;
    stale.push_back({baseline_path, 0, "S1",
                     "stale baseline entry '" + entry +
                         "' matches no finding — the baseline only shrinks; "
                         "delete the line",
                     false});
  }
  return stale;
}

std::size_t fresh_count(const std::vector<Diagnostic>& diags) {
  return static_cast<std::size_t>(
      std::count_if(diags.begin(), diags.end(),
                    [](const Diagnostic& d) { return !d.baselined; }));
}

void print_rule_table(std::ostream& out) {
  out << "detlint rules (suppress: // detlint:allow(ID): reason | "
         "// detlint:allow-file(ID): reason | baseline entry 'path:ID')\n";
  for (const auto& rule : rules()) {
    out << "  " << rule.id << "  " << std::left << std::setw(32)
        << rule.name << " " << rule.summary << "\n";
  }
}

}  // namespace detlint
