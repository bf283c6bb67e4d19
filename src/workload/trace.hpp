#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "workload/request.hpp"

namespace pushpull::workload {

/// A recorded request sequence, usable to replay the exact same workload
/// against different scheduler configurations (the basis of every paired
/// comparison in bench/ and of trace-driven examples).
///
/// The requests live in one shared immutable buffer: copying a Trace shares
/// it instead of copying the requests, and nothing writes to it after
/// construction. release() hands the buffer over when this Trace is its
/// only holder.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<Request> requests);

  /// Records `count` requests from any source with a next() -> Request
  /// member (RequestGenerator, DriftingGenerator, ...).
  template <typename Generator>
  [[nodiscard]] static Trace record(Generator& gen, std::size_t count) {
    std::vector<Request> reqs;
    reqs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) reqs.push_back(gen.next());
    return Trace(std::move(reqs));
  }

  /// Records requests until the arrival clock passes `horizon` from a
  /// source that also reports its arrival_rate(). The buffer is reserved
  /// once for the Poisson count's upper tail, λT + 8·√(λT), so it never
  /// grows by doubling.
  template <typename Generator>
  [[nodiscard]] static Trace record_until(Generator& gen,
                                          des::SimTime horizon) {
    std::vector<Request> reqs;
    const double mean = gen.arrival_rate() * horizon;
    if (mean > 0.0) {
      // Clamped so the conversion is defined; an absurd horizon then fails
      // in reserve() instead of generating until memory runs out.
      const double tail = mean + 8.0 * std::sqrt(mean);
      reqs.reserve(static_cast<std::size_t>(
          std::min(tail, static_cast<double>(reqs.max_size()))));
    }
    for (;;) {
      Request req = gen.next();
      if (req.arrival > horizon) break;
      reqs.push_back(req);
    }
    return Trace(std::move(reqs));
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return requests_ ? requests_->size() : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::span<const Request> requests() const noexcept {
    if (!requests_) return {};
    return *requests_;
  }
  [[nodiscard]] const Request& operator[](std::size_t i) const noexcept {
    return (*requests_)[i];
  }

  /// Hands the request vector over and leaves the trace empty, so a
  /// consumer that rewrites every request (scenario::shape_trace) reuses
  /// this buffer instead of copying it. When another Trace shares the
  /// buffer, that holder keeps it and this one returns a copy.
  [[nodiscard]] std::vector<Request> release() &&;

  /// Arrival time of the last request (0 for an empty trace).
  [[nodiscard]] des::SimTime span() const noexcept;

  /// Serializes as CSV: `id,arrival,item,class` with a header row.
  void save_csv(std::ostream& out) const;

  /// Parses the CSV format produced by save_csv. Throws on malformed input.
  [[nodiscard]] static Trace load_csv(std::istream& in);

 private:
  /// Null for a default-constructed or moved-from trace.
  std::shared_ptr<std::vector<Request>> requests_;
};

}  // namespace pushpull::workload
