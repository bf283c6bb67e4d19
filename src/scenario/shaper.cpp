#include "scenario/shaper.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "metrics/float_compare.hpp"
#include "rng/splitmix64.hpp"

namespace pushpull::scenario {

namespace {

// Stream tags keep the four per-request decisions (migrate?, lost?,
// latency, home cell / target cell) on independent hash chains so no
// decision can alias another.
constexpr std::uint64_t kMigrateStream = 0x4D16A7E5ULL;
constexpr std::uint64_t kLossStream = 0x10575EEDULL;
constexpr std::uint64_t kDelayStream = 0xDE1A15ECULL;
constexpr std::uint64_t kHomeStream = 0x40AE5CE1ULL;
constexpr std::uint64_t kTargetStream = 0x7A46E7CEULL;

/// Two-round counter hash: order-independent, engine-free (detlint D5).
std::uint64_t hash2(std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t counter) {
  return rng::SplitMix64::mix(rng::SplitMix64::mix(seed ^ stream) ^ counter);
}

/// Top-53-bit conversion to [0, 1), same contract as rng::uniform01.
double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// The (arrival, id) order shaped traces are kept in. Ids are unique, so it
/// is total: every sort yields the same sequence.
bool arrival_then_id(const workload::Request& a, const workload::Request& b) {
  if (!metrics::exactly_equal(a.arrival, b.arrival)) {
    return a.arrival < b.arrival;
  }
  return a.id < b.id;
}

template <typename T>
std::vector<T> permuted(const std::vector<T>& values,
                        const std::vector<std::size_t>& order) {
  std::vector<T> out;
  out.reserve(order.size());
  for (std::size_t i : order) out.push_back(values[i]);
  return out;
}

}  // namespace

std::uint64_t ShapeSummary::total_base() const noexcept {
  return std::accumulate(base_per_class.begin(), base_per_class.end(),
                         std::uint64_t{0});
}

std::uint64_t ShapeSummary::total_lost() const noexcept {
  return std::accumulate(handoff_lost.begin(), handoff_lost.end(),
                         std::uint64_t{0});
}

HandoffDraw handoff_draw(std::uint64_t seed, workload::RequestId id,
                         double prob) {
  HandoffDraw draw;
  if (prob <= 0.0) return draw;
  if (unit(hash2(seed, kMigrateStream, id)) >= prob) return draw;
  draw.migrates = true;
  if (unit(hash2(seed, kLossStream, id)) < kHandoffLossFraction) {
    draw.lost = true;
    return draw;
  }
  draw.delay = kHandoffDelayMin + (kHandoffDelayMax - kHandoffDelayMin) *
                                      unit(hash2(seed, kDelayStream, id));
  return draw;
}

std::size_t home_cell(std::uint64_t seed, workload::RequestId id,
                      std::size_t cells) {
  if (cells <= 1) return 0;
  return static_cast<std::size_t>(hash2(seed, kHomeStream, id) %
                                  static_cast<std::uint64_t>(cells));
}

std::size_t handoff_target(std::uint64_t seed, workload::RequestId id,
                           std::size_t home, std::size_t cells) {
  if (cells <= 1) return home;
  const std::size_t offset =
      1 + static_cast<std::size_t>(hash2(seed, kTargetStream, id) %
                                   static_cast<std::uint64_t>(cells - 1));
  return (home + offset) % cells;
}

ShapedTrace shape_trace(workload::Trace base, const Timeline& timeline,
                        std::uint64_t seed, std::size_t num_items,
                        std::size_t num_classes, std::size_t cells) {
  if (num_items == 0) {
    throw std::invalid_argument("shape_trace: num_items must be >= 1");
  }
  if (num_classes == 0) {
    throw std::invalid_argument("shape_trace: num_classes must be >= 1");
  }
  if (cells == 0) {
    throw std::invalid_argument("shape_trace: cells must be >= 1");
  }
  ShapedTrace out;
  out.summary.base_per_class.assign(num_classes, 0);
  out.summary.offered_per_class.assign(num_classes, 0);
  out.summary.handoff_lost.assign(num_classes, 0);
  for (const workload::Request& r : base.requests()) {
    if (r.cls >= num_classes) {
      throw std::invalid_argument("shape_trace: request " +
                                  std::to_string(r.id) +
                                  " has class out of range");
    }
    ++out.summary.base_per_class[r.cls];
  }
  if (timeline.empty()) {
    out.trace = std::move(base);
    out.summary.offered_per_class = out.summary.base_per_class;
    return out;
  }
  out.summary.active = true;

  // Shape in the base trace's own buffer: request i is written at an index
  // <= i, after it has been read, and handoff losses are compacted out.
  std::vector<workload::Request> shaped = std::move(base).release();
  const bool track_cells = cells > 1;
  if (track_cells) {
    out.home.reserve(shaped.size());
    out.cell.reserve(shaped.size());
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < shaped.size(); ++i) {
    const workload::Request r = shaped[i];
    const double warped = timeline.inverse_cumulative(r.arrival);
    const std::size_t rotation = timeline.rotation_at(warped) % num_items;
    catalog::ItemId item = r.item;
    if (rotation != 0) {
      item = static_cast<catalog::ItemId>((r.item + rotation) % num_items);
      if (item != r.item) ++out.summary.rotated;
    }
    const HandoffDraw draw =
        handoff_draw(seed, r.id, timeline.handoff_prob_at(warped));
    if (draw.lost) {
      ++out.summary.handoff_lost[r.cls];
      continue;
    }
    if (draw.migrates) ++out.summary.rehomed;
    shaped[kept++] =
        workload::Request{r.id, item, r.cls, warped + draw.delay};
    ++out.summary.offered_per_class[r.cls];
    if (track_cells) {
      const std::size_t h = home_cell(seed, r.id, cells);
      out.home.push_back(static_cast<std::uint32_t>(h));
      out.cell.push_back(static_cast<std::uint32_t>(
          draw.migrates ? handoff_target(seed, r.id, h, cells) : h));
    }
  }
  shaped.resize(kept);

  // The warp preserves order, so a base in (arrival, id) order leaves this
  // pass sorted unless a handoff latency reordered it. Restore the engines'
  // sorted-arrival precondition only then; with cells > 1 the home and
  // cell columns follow the same permutation.
  if (!std::is_sorted(shaped.begin(), shaped.end(), arrival_then_id)) {
    if (track_cells) {
      std::vector<std::size_t> order(shaped.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::sort(order.begin(), order.end(),
                [&shaped](std::size_t a, std::size_t b) {
                  return arrival_then_id(shaped[a], shaped[b]);
                });
      shaped = permuted(shaped, order);
      out.home = permuted(out.home, order);
      out.cell = permuted(out.cell, order);
    } else {
      std::sort(shaped.begin(), shaped.end(), arrival_then_id);
    }
  }
  out.trace = workload::Trace(std::move(shaped));
  return out;
}

}  // namespace pushpull::scenario
