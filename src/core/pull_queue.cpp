#include "core/pull_queue.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "des/id_map.hpp"

namespace pushpull::core {

void PullQueue::add(const workload::Request& request, double priority,
                    double length, double popularity) {
  if (request.item >= slot_of_.size()) {
    slot_of_.resize(std::size_t{request.item} + 1, kNoSlot);
  }
  Slot& slot = slot_of_[request.item];
  if (slot == kNoSlot) {
    slot = des::narrow_slot<Slot>(entries_.size());
    sched::PullEntry entry;
    entry.item = request.item;
    entry.length = length;
    entry.popularity = popularity;
    entry.first_arrival = request.arrival;
    entries_.push_back(std::move(entry));
    if (heap_live()) {
      // A placeholder key until the drain rekeys the slot (dirty below).
      is_dirty_.push_back(0);
      heap_.push(Node{-std::numeric_limits<double>::infinity(), request.item,
                      slot});
    }
  }
  auto& entry = entries_[slot];
  entry.pending.push_back(request);
  entry.total_priority += priority;
  entry.total_arrival += request.arrival;
  mark_dirty(slot);
  ++total_requests_;
  if (counters_ != nullptr) {
    ++counters_->enters;
    if (total_requests_ > counters_->peak) counters_->peak = total_requests_;
  }
}

const sched::PullEntry* PullQueue::find(catalog::ItemId item) const {
  const Slot slot = slot_of(item);
  return slot == kNoSlot ? nullptr : &entries_[slot];
}

std::size_t PullQueue::select_by_scan(const sched::PullPolicy& policy,
                                      const sched::PullContext& ctx) const {
  std::size_t best = 0;
  double best_score = policy.score(entries_[0], ctx);
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    const double s = policy.score(entries_[i], ctx);
    if (s > best_score ||
        (s == best_score && entries_[i].item < entries_[best].item)) {
      best = i;
      best_score = s;
    }
  }
  return best;
}

std::optional<sched::PullEntry> PullQueue::extract_best(
    const sched::PullPolicy& policy, const sched::PullContext& ctx) {
  if (entries_.empty()) return std::nullopt;
  using Use = sched::PullPolicy::ContextUse;
  const Use use =
      mode_ == SelectMode::kScan ? Use::kFull : policy.context_use();
  std::size_t best = 0;
  if (use == Use::kFull) {
    best = select_by_scan(policy, ctx);
  } else {
    refresh_keys(policy, ctx, use);
    if (scan_only_) {
      best = select_by_scan(policy, ctx);
    } else if (use == Use::kEntryOnly) {
      best = heap_.top().slot;
    } else {
      best = select_scaled(policy, ctx);
    }
  }
  return extract(entries_[best].item);
}

void PullQueue::refresh_keys(const sched::PullPolicy& policy,
                             const sched::PullContext& ctx,
                             sched::PullPolicy::ContextUse use) {
  const bool scaled = use == sched::PullPolicy::ContextUse::kScaledByQueueLen;
  const auto rekey = [&](std::size_t slot) {
    const double key = scaled ? policy.scaled_key(entries_[slot])
                              : policy.score(entries_[slot], ctx);
    // A NaN key breaks the fold/heap equivalence (NaN compares false both
    // ways); an infinite one, the band's error bound. Either defers to the
    // reference scan for the rest of the policy's tenure.
    if (std::isnan(key) || (scaled && std::isinf(key))) scan_only_ = true;
    return key;
  };
  const std::size_t n = entries_.size();
  if (&policy != last_policy_) {
    // New (or first) policy: every cached key is stale, so rekey them all
    // and heapify once.
    last_policy_ = &policy;
    scan_only_ = false;
    dirty_.clear();
    is_dirty_.assign(n, 0);
    heap_.build(n, [&](std::size_t slot) {
      return Node{rekey(slot), entries_[slot].item, static_cast<Slot>(slot)};
    });
    return;
  }
  while (!dirty_.empty()) {
    const Slot slot = dirty_.back();
    dirty_.pop_back();
    if (slot >= n || is_dirty_[slot] == 0) continue;  // stale stack entry
    is_dirty_[slot] = 0;
    const std::size_t pos = heap_.position(slot);
    Node node = heap_[pos];
    node.key = rekey(slot);
    heap_.rekey(pos, node);
  }
}

std::size_t PullQueue::select_scaled(const sched::PullPolicy& policy,
                                     const sched::PullContext& ctx) {
  // Every score is E·key in exact arithmetic, with each side a few
  // roundings off (DESIGN §13). Within these ranges no intermediate over-
  // or underflows, so the scan's winner has a key within ~20 ulps of the
  // root's, well inside the band.
  constexpr double kMinScale = 0x1p-64;
  constexpr double kMinKey = 0x1p-896;
  constexpr double kBand = 0x1p-40;
  const double scale = ctx.expected_queue_len;
  const double top = heap_.top().key;
  if (!(scale >= kMinScale && scale <= 1.0 / kMinScale) ||
      !(top >= kMinKey && top <= 1.0 / kMinKey)) {
    return select_by_scan(policy, ctx);
  }
  const double floor = top * (1.0 - kBand);
  // Depth-first walk of the nodes whose key clears the floor: a node's key
  // bounds its subtree's, so this visits only band members and their
  // children.
  const std::size_t n = heap_.size();
  band_.clear();
  band_.push_back(0);
  std::size_t best = kNoSlot;
  double best_score = 0.0;
  while (!band_.empty()) {
    const std::size_t pos = band_.back();
    band_.pop_back();
    if (heap_[pos].key < floor) continue;
    if (2 * pos + 1 < n) band_.push_back(2 * pos + 1);
    if (2 * pos + 2 < n) band_.push_back(2 * pos + 2);
    // The scan's fold, over the band only.
    const Slot slot = heap_[pos].slot;
    const double s = policy.score(entries_[slot], ctx);
    if (std::isnan(s)) return select_by_scan(policy, ctx);
    if (best == kNoSlot || s > best_score ||
        (s == best_score && entries_[slot].item < entries_[best].item)) {
      best = slot;
      best_score = s;
    }
  }
  return best;
}

std::optional<sched::PullEntry> PullQueue::extract(catalog::ItemId item) {
  const Slot slot = slot_of(item);
  if (slot == kNoSlot) return std::nullopt;
  const std::size_t back = entries_.size() - 1;
  if (heap_live()) {
    // Delete the slot's node. Then the back entry moves to `slot`, and its
    // node, which keeps its cached key and dirty mark, is re-pointed there.
    heap_.erase(heap_.position(slot));
    if (slot != back) {
      heap_.repoint(static_cast<Slot>(back), slot);
      if (is_dirty_[back] != 0 && is_dirty_[slot] == 0) dirty_.push_back(slot);
      is_dirty_[slot] = is_dirty_[back];
    }
    is_dirty_.pop_back();
  }
  sched::PullEntry out = std::move(entries_[slot]);
  slot_of_[item] = kNoSlot;
  if (slot != back) {
    entries_[slot] = std::move(entries_.back());
    slot_of_[entries_[slot].item] = slot;
  }
  entries_.pop_back();
  if (total_requests_ < out.pending.size()) {
    throw std::logic_error(
        "PullQueue: extracting item " + std::to_string(item) + " with " +
        std::to_string(out.pending.size()) +
        " pending requests but only " + std::to_string(total_requests_) +
        " tracked in total; add/remove accounting is corrupt");
  }
  total_requests_ -= out.pending.size();
  if (counters_ != nullptr && !out.pending.empty()) {
    counters_->leaves += out.pending.size();
    ++counters_->extracts;
  }
  return out;
}

bool PullQueue::remove_request(catalog::ItemId item,
                               workload::RequestId request, double priority) {
  const Slot slot = slot_of(item);
  if (slot == kNoSlot) return false;
  auto& entry = entries_[slot];
  auto pending_it = entry.pending.begin();
  for (; pending_it != entry.pending.end(); ++pending_it) {
    if (pending_it->id == request) break;
  }
  if (pending_it == entry.pending.end()) return false;
  entry.total_arrival -= pending_it->arrival;
  entry.pending.erase(pending_it);
  --total_requests_;
  if (counters_ != nullptr) ++counters_->leaves;
  if (entry.pending.empty()) {
    // The emptied entry leaves the queue; its batch size is already zero,
    // so extract() adjusts no further counts.
    (void)extract(item);
    return true;
  }
  entry.total_priority -= priority;
  entry.first_arrival = entry.pending.front().arrival;
  for (const auto& r : entry.pending) {
    if (r.arrival < entry.first_arrival) entry.first_arrival = r.arrival;
  }
  mark_dirty(slot);
  return true;
}

void PullQueue::clear() {
  // A mid-run wipe (cold-recovery crash) discards every queued request, so
  // the enter/leave conservation tally still balances at run end.
  if (counters_ != nullptr) counters_->leaves += total_requests_;
  for (const auto& entry : entries_) slot_of_[entry.item] = kNoSlot;
  entries_.clear();
  total_requests_ = 0;
  invalidate_scores();  // the next keyed extraction rebuilds the heap
}

void PullQueue::mark_dirty(std::size_t slot) {
  if (heap_live() && is_dirty_[slot] == 0) {
    is_dirty_[slot] = 1;
    dirty_.push_back(static_cast<Slot>(slot));
  }
}

}  // namespace pushpull::core
