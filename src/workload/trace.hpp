#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <utility>
#include <vector>

#include "workload/request.hpp"

namespace pushpull::workload {

/// A recorded request sequence, usable to replay the exact same workload
/// against different scheduler configurations (the basis of every paired
/// comparison in bench/ and of trace-driven examples).
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

  /// Records requests until the arrival clock passes `horizon`.
  template <typename Generator>
  [[nodiscard]] static Trace record_until(Generator& gen,
                                          des::SimTime horizon) {
    std::vector<Request> reqs;
    for (;;) {
      Request req = gen.next();
      if (req.arrival > horizon) break;
      reqs.push_back(req);
    }
    return Trace(std::move(reqs));
  }

  [[nodiscard]] std::size_t size() const noexcept { return requests_.size(); }
  [[nodiscard]] bool empty() const noexcept { return requests_.empty(); }
  [[nodiscard]] std::span<const Request> requests() const noexcept {
    return requests_;
  }
  [[nodiscard]] const Request& operator[](std::size_t i) const noexcept {
    return requests_[i];
  }

  /// Hands the request vector over and leaves the trace empty, so a
  /// consumer that rewrites every request (scenario::shape_trace) reuses
  /// this buffer instead of copying it.
  [[nodiscard]] std::vector<Request> release() && {
    return std::move(requests_);
  }

  /// Arrival time of the last request (0 for an empty trace).
  [[nodiscard]] des::SimTime span() const noexcept;

  /// Serializes as CSV: `id,arrival,item,class` with a header row.
  void save_csv(std::ostream& out) const;

  /// Parses the CSV format produced by save_csv. Throws on malformed input.
  [[nodiscard]] static Trace load_csv(std::istream& in);

 private:
  std::vector<Request> requests_;
};

}  // namespace pushpull::workload
