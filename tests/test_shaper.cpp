// Byte-level pin of scenario::shape_trace.
//
// Every preset is applied to one synthetic base trace (20,000 requests,
// D = 100, three classes, with runs of tied arrivals) at cells 1 and 3 and
// two seeds. Each case records its ShapeSummary counters, whether the
// shaped order differs from the base order (handoff delays reorder under
// commuter and kitchen-sink, never under diurnal and flashcrowd), and an
// FNV-1a hash over one line per shaped request: id, item, class, arrival
// as a hex float, and home/cell when cells = 3. The text is byte-compared
// against tests/golden/scenario/shaped.txt; on a mismatch the actual bytes
// are written to shaped.txt.actual in the working directory.
//
// A second test counts allocations (tests/counting_new.hpp): shaping a
// moved-in trace works in the base trace's own buffer, so no allocation
// grows with the trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "counting_new.hpp"
#include "rng/splitmix64.hpp"
#include "scenario/presets.hpp"
#include "scenario/shaper.hpp"
#include "workload/request.hpp"
#include "workload/trace.hpp"

namespace pushpull {
namespace {

using scenario::Preset;

constexpr std::size_t kItems = 100;
constexpr std::size_t kClasses = 3;

/// Counter-hashed base trace: uniform gaps in [0, 0.4) (rate ≈ 5), every
/// 50th gap zero so ties exercise the id tie-break, ids in arrival order.
workload::Trace golden_base(std::size_t n) {
  std::vector<workload::Request> reqs;
  reqs.reserve(n);
  double clock = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t h = rng::SplitMix64::mix(0xBA5E0000ULL + i);
    if (i % 50 != 49) {
      clock += 0.4 * static_cast<double>(h >> 11) * 0x1.0p-53;
    }
    workload::Request r;
    r.id = static_cast<workload::RequestId>(i);
    r.item = static_cast<catalog::ItemId>((h >> 8) % kItems);
    r.cls = static_cast<workload::ClassId>((h >> 4) % kClasses);
    r.arrival = clock;
    reqs.push_back(r);
  }
  return workload::Trace(std::move(reqs));
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void put_counts(std::ostringstream& out, const char* name,
                const std::vector<std::uint64_t>& counts) {
  out << ' ' << name << '=';
  for (std::size_t c = 0; c < counts.size(); ++c) {
    out << (c ? "," : "") << counts[c];
  }
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001B3ULL;
  }
  return h;
}

void digest_case(std::ostringstream& out, const workload::Trace& base,
                 Preset preset, std::size_t cells, std::uint64_t seed) {
  const scenario::Timeline timeline =
      scenario::make_timeline(preset, 1.0, base.span(), kItems);
  const scenario::ShapedTrace shaped =
      scenario::shape_trace(base, timeline, seed, kItems, kClasses, cells);
  const auto& reqs = shaped.trace.requests();
  const bool reordered = !std::is_sorted(
      reqs.begin(), reqs.end(),
      [](const workload::Request& a, const workload::Request& b) {
        return a.id < b.id;
      });
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    std::ostringstream line;
    line << reqs[i].id << ' ' << reqs[i].item << ' ' << reqs[i].cls << ' '
         << hex(reqs[i].arrival);
    if (cells > 1) line << ' ' << shaped.home[i] << ' ' << shaped.cell[i];
    line << '\n';
    h = fnv1a(h, line.str());
  }
  out << scenario::to_string(preset) << " cells=" << cells
      << " seed=" << seed << " active=" << shaped.summary.active;
  put_counts(out, "base", shaped.summary.base_per_class);
  put_counts(out, "offered", shaped.summary.offered_per_class);
  put_counts(out, "lost", shaped.summary.handoff_lost);
  out << " rehomed=" << shaped.summary.rehomed
      << " rotated=" << shaped.summary.rotated << " requests=" << reqs.size()
      << " home=" << shaped.home.size() << " cell=" << shaped.cell.size()
      << " reordered=" << reordered << " span=" << hex(shaped.trace.span());
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(h));
  out << " fnv=" << digest << '\n';
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ShaperGolden, EveryPresetCellCountAndSeedIsByteIdentical) {
  const workload::Trace base = golden_base(20000);
  std::ostringstream out;
  for (Preset preset : {Preset::kDiurnal, Preset::kFlashcrowd,
                        Preset::kCommuter, Preset::kKitchenSink}) {
    for (std::size_t cells : {std::size_t{1}, std::size_t{3}}) {
      for (std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{20050614}}) {
        digest_case(out, base, preset, cells, seed);
      }
    }
  }
  const std::string actual = out.str();
  const std::string path =
      std::string(PUSHPULL_GOLDEN_DIR) + "/scenario/shaped.txt";
  const std::string expected = slurp(path);
  if (actual != expected) {
    std::ofstream("shaped.txt.actual", std::ios::binary) << actual;
  }
  ASSERT_FALSE(expected.empty()) << "missing golden " << path;
  EXPECT_TRUE(actual == expected)
      << "shaped traces drifted from their golden; see shaped.txt.actual";
}

/// Largest single allocation made while shaping a moved-in trace of
/// `n` requests under `preset` with cells = 1.
std::size_t largest_shaping_allocation(Preset preset, std::size_t n) {
  workload::Trace base = golden_base(n);
  const scenario::Timeline timeline =
      scenario::make_timeline(preset, 1.0, base.span(), kItems);
  std::size_t largest = 0;
  std::size_t shaped_size = 0;
  {
    const alloc_count::AllocationCount count;
    const scenario::ShapedTrace shaped =
        scenario::shape_trace(std::move(base), timeline, 7, kItems, kClasses);
    largest = count.largest();
    shaped_size = shaped.trace.size();
  }
  EXPECT_GT(shaped_size, n / 2) << scenario::to_string(preset);
  return largest;
}

// 100,000 requests are 2.4 MB; a copy, an index array or a sorted copy
// would each be far above the bound.
constexpr std::size_t kAllocationBound = 64 * 1024;

TEST(ShaperAlloc, FlashcrowdShapesInPlace) {
  EXPECT_LT(largest_shaping_allocation(Preset::kFlashcrowd, 100000),
            kAllocationBound);
}

TEST(ShaperAlloc, CommuterSortsInPlace) {
  EXPECT_LT(largest_shaping_allocation(Preset::kCommuter, 100000),
            kAllocationBound);
}

// The trace's buffer is shared between copies, so shaping works in place
// only for its sole holder; exp::Scenario::build moves its base trace in.
TEST(ShaperAlloc, SoleOwnerShapesInItsOwnBuffer) {
  for (Preset preset : {Preset::kFlashcrowd, Preset::kCommuter}) {
    workload::Trace base = golden_base(20000);
    const workload::Request* buffer = base.requests().data();
    const scenario::Timeline timeline =
        scenario::make_timeline(preset, 1.0, base.span(), kItems);
    const scenario::ShapedTrace shaped =
        scenario::shape_trace(std::move(base), timeline, 7, kItems, kClasses);
    EXPECT_EQ(shaped.trace.requests().data(), buffer)
        << scenario::to_string(preset);
  }
}

TEST(ShaperAlloc, SharedTraceIsCopiedAndKeepsItsRequests) {
  const workload::Trace held = golden_base(20000);
  const std::vector<workload::Request> original(held.requests().begin(),
                                                held.requests().end());
  const auto unchanged = [&] {
    return std::equal(original.begin(), original.end(),
                      held.requests().begin(), held.requests().end(),
                      [](const workload::Request& a,
                         const workload::Request& b) {
                        return a.id == b.id && a.item == b.item &&
                               a.cls == b.cls && a.arrival == b.arrival;
                      });
  };
  for (Preset preset : {Preset::kFlashcrowd, Preset::kCommuter}) {
    workload::Trace copy = held;
    ASSERT_EQ(copy.requests().data(), held.requests().data());
    const scenario::Timeline timeline =
        scenario::make_timeline(preset, 1.0, held.span(), kItems);
    const scenario::ShapedTrace shaped =
        scenario::shape_trace(std::move(copy), timeline, 7, kItems, kClasses);
    EXPECT_NE(shaped.trace.requests().data(), held.requests().data())
        << scenario::to_string(preset);
    EXPECT_TRUE(unchanged()) << scenario::to_string(preset);
  }
}

}  // namespace
}  // namespace pushpull
