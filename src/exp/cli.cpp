#include "exp/cli.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "metrics/sorted_view.hpp"

namespace pushpull::exp {

namespace {

/// Full-token unsigned parse: rejects empty strings, signs, and trailing
/// garbage ("12abc"), all of which std::stoull would silently accept or
/// wrap. Throws std::invalid_argument naming the flag.
std::uint64_t parse_unsigned(const std::string& key,
                             const std::string& value) {
  std::size_t pos = 0;
  std::uint64_t parsed = 0;
  try {
    if (value.empty() || value[0] == '-' || value[0] == '+') {
      throw std::invalid_argument("sign");
    }
    parsed = std::stoull(value, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("ArgParser: --" + key +
                                " expects a non-negative integer, got '" +
                                value + "'");
  }
  if (pos != value.size()) {
    throw std::invalid_argument("ArgParser: --" + key +
                                " expects a non-negative integer, got '" +
                                value + "'");
  }
  return parsed;
}

/// The one diagnostic for options a command does not take.
[[noreturn]] void throw_unknown(const std::string& options) {
  throw std::invalid_argument("unknown option " + options +
                              " (run with no arguments for usage)");
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string key = arg.substr(2);
      if (key.empty()) {
        throw std::invalid_argument("ArgParser: bare '--' not supported");
      }
      // A repeated flag is ambiguous — silently keeping the last occurrence
      // would make `--seed 1 ... --seed 2` reproduce the wrong run.
      if (options_.contains(key)) {
        throw std::logic_error("ArgParser: --" + key +
                               " given more than once");
      }
      // A following token that is not itself an option is this key's value;
      // otherwise the key is a boolean flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        options_[key].value = argv[++i];
      } else {
        options_[key].value = "";
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

const std::string* ArgParser::read(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return nullptr;
  it->second.read = true;
  return &it->second.value;
}

std::string ArgParser::get_positional(std::size_t index,
                                      const std::string& fallback) const {
  positionals_read_ = std::max(positionals_read_, index + 1);
  return index < positional_.size() ? positional_[index] : fallback;
}

bool ArgParser::get_flag(const std::string& key) const {
  const std::string* value = read(key);
  if (value != nullptr && !value->empty()) {
    throw std::invalid_argument("ArgParser: --" + key +
                                " is a switch and takes no value, got '" +
                                *value + "'");
  }
  return value != nullptr;
}

std::string ArgParser::get_string(const std::string& key,
                                  const std::string& fallback) const {
  const std::string* value = read(key);
  return value == nullptr ? fallback : *value;
}

double ArgParser::get_double(const std::string& key, double fallback) const {
  const std::string* value = read(key);
  if (value == nullptr) return fallback;
  std::size_t pos = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(*value, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;  // unify the two failure paths below
  }
  if (pos != value->size()) {
    throw std::invalid_argument("ArgParser: --" + key +
                                " expects a number, got '" + *value + "'");
  }
  return parsed;
}

std::size_t ArgParser::get_size(const std::string& key,
                                std::size_t fallback) const {
  const std::string* value = read(key);
  if (value == nullptr) return fallback;
  return static_cast<std::size_t>(parse_unsigned(key, *value));
}

std::uint64_t ArgParser::get_u64(const std::string& key,
                                 std::uint64_t fallback) const {
  const std::string* value = read(key);
  if (value == nullptr) return fallback;
  return parse_unsigned(key, *value);
}

double ArgParser::get_positive_double(const std::string& key,
                                      double fallback) const {
  const std::string* value = read(key);
  if (value == nullptr) return fallback;
  const double parsed = get_double(key, fallback);
  if (!(parsed > 0.0) || !std::isfinite(parsed)) {
    throw std::invalid_argument("ArgParser: --" + key +
                                " expects a positive finite number, got '" +
                                *value + "'");
  }
  return parsed;
}

double ArgParser::get_nonnegative_double(const std::string& key,
                                         double fallback) const {
  const std::string* value = read(key);
  if (value == nullptr) return fallback;
  const double parsed = get_double(key, fallback);
  if (!(parsed >= 0.0) || !std::isfinite(parsed)) {
    throw std::invalid_argument("ArgParser: --" + key +
                                " expects a non-negative finite number, got '" +
                                *value + "'");
  }
  return parsed;
}

std::uint64_t ArgParser::get_positive_u64(const std::string& key,
                                          std::uint64_t fallback) const {
  const std::string* value = read(key);
  if (value == nullptr) return fallback;
  const std::uint64_t parsed = parse_unsigned(key, *value);
  if (parsed == 0) {
    throw std::invalid_argument("ArgParser: --" + key +
                                " expects a positive integer, got '" +
                                *value + "'");
  }
  return parsed;
}

std::size_t ArgParser::get_jobs(const std::string& key) const {
  if (has(key)) {
    const std::size_t jobs = get_size(key, 0);
    if (jobs == 0) {
      throw std::invalid_argument(
          "ArgParser: --" + key +
          " must be >= 1 (omit the flag for one worker per hardware thread)");
    }
    return jobs;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void ArgParser::require_known(
    std::initializer_list<std::string_view> allowed,
    std::initializer_list<std::string_view> extra) const {
  // Iterate a key-sorted view, not the unordered map: the diagnostic names
  // the offending option(s), and which one leads must not depend on hash
  // order (detlint D3).
  std::string unknown;
  for (const auto& [key, option] : metrics::sorted_view(options_)) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end() &&
        std::find(extra.begin(), extra.end(), key) == extra.end()) {
      unknown += (unknown.empty() ? "" : ", ") + ("--" + key);
    }
  }
  if (!unknown.empty()) throw_unknown(unknown);
}

void ArgParser::reject_unread() const {
  std::string unread;
  for (const auto& [key, option] : metrics::sorted_view(options_)) {
    if (!option.read) unread += (unread.empty() ? "" : ", ") + ("--" + key);
  }
  if (!unread.empty()) throw_unknown(unread);
  if (positionals_read_ < positional_.size()) {
    throw std::invalid_argument("unexpected argument '" +
                                positional_[positionals_read_] +
                                "' (run with no arguments for usage)");
  }
}

}  // namespace pushpull::exp
