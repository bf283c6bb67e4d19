#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pushpull::exp {

/// Minimal command-line parser for the CLI tool and bench binaries:
/// `--key value` options, `--flag` booleans, and positional arguments.
/// Values are parsed on access with clear errors (a malformed value —
/// "abc", "12abc", a negative count — throws std::invalid_argument naming
/// the flag, never silently truncates). Every accessor records the key it
/// read, present or not, so a command reads its flags and then calls
/// reject_unread(): the reads are the allow-list, and a flag the run would
/// ignore fails instead.
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// Positional arguments in order (argv[0] excluded). A view only: it
  /// marks nothing read (see get_positional).
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// The positional argument at `index`, or `fallback` when there are
  /// fewer; marks it and every earlier positional read.
  [[nodiscard]] std::string get_positional(std::size_t index,
                                           const std::string& fallback) const;

  /// Whether `--key` was passed. A query only: it marks nothing read, so a
  /// switch is read through get_flag and a valued option through its get_*.
  [[nodiscard]] bool has(const std::string& key) const noexcept {
    return options_.contains(key);
  }

  /// Boolean switch (`--csv`, `--fault`): true when passed. A value
  /// attached to it (`--fault 0`) throws std::invalid_argument naming the
  /// flag and the value rather than being dropped.
  [[nodiscard]] bool get_flag(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::size_t get_size(const std::string& key,
                                     std::size_t fallback) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;

  /// Strictly-positive numeric option (`--duration SEC`, `--target-qps N`,
  /// `--time-scale X`): absent returns `fallback`; present values must
  /// parse as a full token to a positive finite number — zero, negatives
  /// ("-3"), non-finite values ("inf", "nan") and garble ("abc", "12abc")
  /// all throw std::invalid_argument (IS-A std::logic_error) naming the
  /// flag, matching the rest of the parser's no-silent-truncation policy.
  [[nodiscard]] double get_positive_double(const std::string& key,
                                           double fallback) const;

  /// Non-negative numeric option (`--spike-start T`, `--spike-duration T`):
  /// same contract as get_positive_double except 0 is allowed — negatives,
  /// non-finite values and garble throw std::invalid_argument naming the
  /// flag.
  [[nodiscard]] double get_nonnegative_double(const std::string& key,
                                              double fallback) const;

  /// Strictly-positive integer option: absent returns `fallback`; present
  /// values must be a full-token integer >= 1 (zero, signs and garble throw
  /// std::invalid_argument naming the flag).
  [[nodiscard]] std::uint64_t get_positive_u64(const std::string& key,
                                               std::uint64_t fallback) const;

  /// Worker-count option (`--jobs N`): absent means "one worker per
  /// hardware thread" (std::thread::hardware_concurrency, at least 1);
  /// `--jobs 1` forces the legacy serial path. An explicit `--jobs 0` (or
  /// any non-positive/garbled value) throws std::invalid_argument — omit
  /// the flag to request auto. Never returns 0.
  [[nodiscard]] std::size_t get_jobs(const std::string& key) const;

  /// Validates that every `--option` the user passed is in `allowed` (or
  /// the optional `extra` list); throws std::invalid_argument naming an
  /// unknown option otherwise. Superseded by reject_unread(), which needs
  /// no list kept apart from the reads.
  void require_known(std::initializer_list<std::string_view> allowed,
                     std::initializer_list<std::string_view> extra = {}) const;

  /// Throws std::invalid_argument for anything passed that no accessor
  /// read: `unknown option --a, --b (run with no arguments for usage)`,
  /// key-sorted, or else the first unread positional argument. Call after
  /// the reads and before any work, so a flag the run would ignore fails
  /// before a trace is built or a file is opened.
  void reject_unread() const;

 private:
  struct Option {
    std::string value;
    mutable bool read = false;
  };

  /// The option's value, marked read, or nullptr when it was not passed.
  [[nodiscard]] const std::string* read(const std::string& key) const;

  std::unordered_map<std::string, Option> options_;
  std::vector<std::string> positional_;
  mutable std::size_t positionals_read_ = 0;
};

}  // namespace pushpull::exp
