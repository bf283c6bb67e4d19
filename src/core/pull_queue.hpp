#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "des/indexed_heap.hpp"
#include "obs/counters.hpp"
#include "sched/pull/entry.hpp"
#include "sched/pull/policy.hpp"
#include "workload/population.hpp"

namespace pushpull::core {

/// The server's pull queue: one aggregated entry per distinct requested
/// item (the paper's R_i / Q_i / S_i bookkeeping), with policy-driven
/// extraction of the most important entry.
///
/// Storage is a dense vector of entries with a dense item→slot index (one
/// slot number per item id up to the largest seen); removal swaps with the
/// back, so insertion, lookup and removal are O(1). Selection has two
/// engines:
///
/// - kIndexed (default): a cached key per entry in an indexed binary
///   max-heap (des::IndexedHeap) of {key, item, slot} nodes.
///   Mutations (add / extract / remove_request) mark the touched slot
///   dirty; extraction rekeys only dirty slots in place and sifts each up
///   or down — O(d·log n) where d is the number of entries whose R_i/Q_i/age
///   inputs changed since the last extraction, instead of the O(n) full
///   rescan. How the key is used follows PullPolicy::context_use(): for
///   entry-only policies the key is the score and the winner sits at the
///   heap root; for scores scaled by expected_queue_len (Eq. 6) the key is
///   the score at E[L_pull] = 1, and only the nodes whose key lies within a
///   2^-40 relative band of the root are rescored and folded.
///   Context-dependent policies (RxW, LWF, aging) fall back to the scan,
///   and the heap is built only at the first keyed extraction.
/// - kScan: the original O(n) linear rescan, kept as the reference engine
///   for the differential fuzz oracle and the throughput benchmark.
///
/// Both engines are bit-identical by construction: the heap order is the
/// scan's exact fold condition (higher score wins, ties toward the lower
/// item id), which is a total order over NaN-free keys, so the heap root
/// is the left-to-right scan winner; the band provably holds the scan's
/// winner (DESIGN §13). A NaN key (where the fold is not associative), or
/// an infinite scaled key, forces the scan engine for the rest of the
/// policy's tenure.
class PullQueue {
 public:
  enum class SelectMode { kScan, kIndexed };

  PullQueue() = default;
  explicit PullQueue(SelectMode mode) : mode_(mode) {}

  /// True when no item has pending requests.
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  /// Number of distinct items with pending requests.
  [[nodiscard]] std::size_t distinct_items() const noexcept {
    return entries_.size();
  }

  /// Total pending requests across all items (the queue length the
  /// analytical model calls L_pull).
  [[nodiscard]] std::size_t total_requests() const noexcept {
    return total_requests_;
  }

  [[nodiscard]] std::span<const sched::PullEntry> entries() const noexcept {
    return entries_;
  }

  /// Appends a request, creating or extending the item's entry.
  /// `priority` is the requesting client's q_j; `length` and `popularity`
  /// are the item's catalog attributes (cached in the entry so policies
  /// never need catalog access).
  void add(const workload::Request& request, double priority, double length,
           double popularity);

  /// Entry for a specific item, if present.
  [[nodiscard]] const sched::PullEntry* find(catalog::ItemId item) const;

  /// Scores all entries under `policy` and removes and returns the best
  /// (ties broken toward the lowest item id). Returns nullopt when empty.
  ///
  /// Cached scores are keyed on the policy object's address: extracting
  /// with a different PullPolicy instance rescores everything. A caller
  /// that destroys a policy and constructs a replacement at the same
  /// address between extractions must call invalidate_scores() (no current
  /// caller replaces a policy mid-run).
  [[nodiscard]] std::optional<sched::PullEntry> extract_best(
      const sched::PullPolicy& policy, const sched::PullContext& ctx);

  /// Removes and returns a specific item's entry (used by tests and by
  /// blocking paths that must drop a selected entry).
  [[nodiscard]] std::optional<sched::PullEntry> extract(catalog::ItemId item);

  /// Removes one pending request (an impatient client abandoning); the
  /// entry's priority sum and first-arrival are re-derived, and the entry
  /// disappears when its last request leaves. `priority` must be the q_j
  /// that was passed to add(). Returns false if the request is not queued.
  bool remove_request(catalog::ItemId item, workload::RequestId request,
                      double priority);

  void clear();

  /// Drops every cached score (next extract_best rescores all entries).
  void invalidate_scores() noexcept { last_policy_ = nullptr; }

  /// Installs (nullptr removes) the observability counter hook. The queue
  /// tallies request enters/leaves, winning extracts and the peak length
  /// into it; a null hook costs one pointer test per mutation. The hook
  /// never influences queue behavior.
  void set_counters(obs::QueueCounters* counters) noexcept {
    counters_ = counters;
  }

 private:
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = std::numeric_limits<Slot>::max();

  /// The item's slot, or kNoSlot when it has no entry.
  [[nodiscard]] Slot slot_of(catalog::ItemId item) const noexcept {
    return item < slot_of_.size() ? slot_of_[item] : kNoSlot;
  }
  void mark_dirty(std::size_t slot);
  /// The reference selection: the exact legacy left-to-right fold.
  [[nodiscard]] std::size_t select_by_scan(const sched::PullPolicy& policy,
                                           const sched::PullContext& ctx) const;
  /// Rekeys the dirty slots, or every slot and heapifies for a new policy.
  void refresh_keys(const sched::PullPolicy& policy,
                    const sched::PullContext& ctx,
                    sched::PullPolicy::ContextUse use);
  /// Selection for kScaledByQueueLen policies: the scan's fold over the
  /// root's key band, or the scan itself outside the bound's ranges.
  [[nodiscard]] std::size_t select_scaled(const sched::PullPolicy& policy,
                                          const sched::PullContext& ctx);

  /// A heap node: the slot's cached key and the item that breaks its ties.
  struct Node {
    double key;
    catalog::ItemId item;
    Slot slot;
  };
  /// The scan's fold order: a outranks b when strictly higher, or tied with
  /// a lower item id.
  struct Outranks {
    [[nodiscard]] bool operator()(const Node& a, const Node& b) const noexcept {
      return a.key > b.key || (a.key == b.key && a.item < b.item);
    }
  };
  /// The heap is kept only while a keyed policy's keys are cached.
  [[nodiscard]] bool heap_live() const noexcept {
    return last_policy_ != nullptr;
  }

  SelectMode mode_ = SelectMode::kIndexed;
  std::vector<sched::PullEntry> entries_;
  std::vector<Slot> slot_of_;  // item -> slot, kNoSlot when absent
  std::size_t total_requests_ = 0;
  obs::QueueCounters* counters_ = nullptr;

  // Indexed-selection state, kept only while heap_live(). heap_ holds one
  // node per entry; is_dirty_ parallels entries_. dirty_ is a stack of
  // slots to rekey (flag-deduplicated; entries may be stale after
  // swap-removes and are revalidated on drain). A dirty node's key is stale
  // but still ordered, so every sift stays valid until the drain rekeys it.
  des::IndexedHeap<Node, Outranks> heap_;
  std::vector<char> is_dirty_;
  std::vector<Slot> dirty_;
  std::vector<std::size_t> band_;  // select_scaled's walk stack (reused)
  const sched::PullPolicy* last_policy_ = nullptr;
  bool scan_only_ = false;
};

}  // namespace pushpull::core
