#pragma once

// Span log of the traced run. Every call the benchmark makes into a public
// library function runs inside a span: name, start, end, parent span and
// repetition id, timed on one runtime::StopWatch (the tree's sanctioned
// clock, detlint D1). Spans stay in memory while the workload runs and are
// written as JSONL afterwards, so no I/O lands inside a measured interval.
// Single-threaded: spans are opened only from the benchmark's own thread.
// The traced run makes one repetition, so every span carries rep 0.

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "runtime/run_reporter.hpp"

namespace pushpull::perf {

struct Span {
  std::string name;
  std::size_t id = 0;      // 1-based, in opening order
  std::size_t parent = 0;  // 0 for the root span
  double start_ms = 0.0;
  double end_ms = 0.0;

  [[nodiscard]] double ms() const noexcept { return end_ms - start_ms; }
};

class SpanLog {
 public:
  /// Runs `fn` inside a span named `name`, a child of the innermost open
  /// span, and returns the span's duration in seconds.
  template <typename Fn>
  double span(std::string name, Fn&& fn) {
    const std::size_t index = spans_.size();
    spans_.push_back(Span{std::move(name), index + 1,
                          open_.empty() ? 0 : open_.back() + 1,
                          clock_.elapsed_ms(), 0.0});
    open_.push_back(index);
    struct Close {
      SpanLog& log;
      std::size_t index;
      ~Close() {
        log.spans_[index].end_ms = log.clock_.elapsed_ms();
        log.open_.pop_back();
      }
    } close{*this, index};
    std::forward<Fn>(fn)();
    return (clock_.elapsed_ms() - spans_[index].start_ms) / 1000.0;
  }

  /// Share of the root span's duration covered by its direct children.
  [[nodiscard]] double child_coverage() const {
    if (spans_.empty() || spans_.front().ms() <= 0.0) return 0.0;
    double covered = 0.0;
    for (const Span& s : spans_) {
      if (s.parent == 1) covered += s.ms();
    }
    return covered / spans_.front().ms();
  }

  /// One JSON object per span, in opening order.
  void write_jsonl(std::ostream& out) const {
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"rep\":0"
          << ",\"start_ms\":" << obs::render_number(s.start_ms)
          << ",\"end_ms\":" << obs::render_number(s.end_ms) << "}\n";
    }
  }

  /// Calls, total and self time per span name. Self time is a span's
  /// duration minus the part its direct children cover.
  void print_self_times(std::ostream& out) const {
    struct Row {
      std::size_t calls = 0;
      double total_ms = 0.0;
      double self_ms = 0.0;
    };
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ms[s.parent - 1] += s.ms();
    }
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Row& row = rows[spans_[i].name];
      ++row.calls;
      row.total_ms += spans_[i].ms();
      row.self_ms += spans_[i].ms() - child_ms[i];
    }
    const double root_ms = spans_.empty() ? 0.0 : spans_.front().ms();
    out << "# span self times (ms; share of the root span)\n";
    for (const auto& [name, row] : rows) {
      out << "#   " << name << "  calls " << row.calls << "  total "
          << obs::render_number(row.total_ms) << "  self "
          << obs::render_number(row.self_ms) << "  self share "
          << obs::render_number(root_ms > 0.0 ? row.self_ms / root_ms : 0.0)
          << "\n";
    }
  }

 private:
  runtime::StopWatch clock_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices into spans_, innermost last
};

}  // namespace pushpull::perf
