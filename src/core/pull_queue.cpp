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
    scores_.push_back(0.0);
    is_dirty_.push_back(0);
    if (tree_cap_ != 0 && entries_.size() > tree_cap_) {
      rebuild_tree();
    } else {
      tree_set_leaf(entries_.size() - 1);
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
      best = tree_[1];
    } else {
      best = select_scaled(policy, ctx);
    }
  }
  return extract(entries_[best].item);
}

void PullQueue::refresh_keys(const sched::PullPolicy& policy,
                             const sched::PullContext& ctx,
                             sched::PullPolicy::ContextUse use) {
  const std::size_t n = entries_.size();
  if (&policy != last_policy_) {
    // New (or first) policy: every cached key is stale.
    last_policy_ = &policy;
    scan_only_ = false;
    dirty_.clear();
    dirty_.reserve(n);
    for (std::size_t slot = 0; slot < n; ++slot) {
      is_dirty_[slot] = 1;
      dirty_.push_back(static_cast<Slot>(slot));
    }
  }
  if (tree_cap_ < n) rebuild_tree();
  const bool scaled = use == sched::PullPolicy::ContextUse::kScaledByQueueLen;
  while (!dirty_.empty()) {
    const std::size_t slot = dirty_.back();
    dirty_.pop_back();
    if (slot >= n || is_dirty_[slot] == 0) continue;  // stale stack entry
    is_dirty_[slot] = 0;
    const double key = scaled ? policy.scaled_key(entries_[slot])
                              : policy.score(entries_[slot], ctx);
    // A NaN key breaks the fold/tree equivalence (NaN compares false both
    // ways); an infinite one, the band's error bound. Either defers to the
    // reference scan for the rest of the policy's tenure.
    if (std::isnan(key) || (scaled && std::isinf(key))) scan_only_ = true;
    scores_[slot] = key;
    tree_set_leaf(slot);
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
  const double top = scores_[tree_[1]];
  if (!(scale >= kMinScale && scale <= 1.0 / kMinScale) ||
      !(top >= kMinKey && top <= 1.0 / kMinKey)) {
    return select_by_scan(policy, ctx);
  }
  const double floor = top * (1.0 - kBand);
  // Depth-first walk of the subtrees whose winner clears the floor: each
  // node holds its subtree's best key, so this visits only band members
  // and their ancestors.
  band_.clear();
  band_.push_back(1);
  std::size_t best = kNoSlot;
  double best_score = 0.0;
  while (!band_.empty()) {
    const std::size_t node = band_.back();
    band_.pop_back();
    const Slot slot = tree_[node];
    if (slot == kNoSlot || scores_[slot] < floor) continue;
    if (node < tree_cap_) {
      band_.push_back(2 * node + 1);
      band_.push_back(2 * node);
      continue;
    }
    // The scan's fold, over the band only.
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
  sched::PullEntry out = std::move(entries_[slot]);
  slot_of_[item] = kNoSlot;
  if (slot != back) {
    entries_[slot] = std::move(entries_.back());
    // The moved entry keeps its cached score; only its slot changed.
    scores_[slot] = scores_[back];
    if (is_dirty_[back] != 0 && is_dirty_[slot] == 0) {
      is_dirty_[slot] = 1;
      dirty_.push_back(slot);
    }
    slot_of_[entries_[slot].item] = slot;
  }
  entries_.pop_back();
  scores_.pop_back();
  is_dirty_.pop_back();
  tree_set_leaf(back);                   // vacated leaf
  if (slot != back) tree_set_leaf(slot); // moved entry's new path
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
  scores_.clear();
  is_dirty_.clear();
  dirty_.clear();
  tree_.clear();
  tree_cap_ = 0;
  last_policy_ = nullptr;
  scan_only_ = false;
}

void PullQueue::mark_dirty(std::size_t slot) {
  if (is_dirty_[slot] == 0) {
    is_dirty_[slot] = 1;
    dirty_.push_back(static_cast<Slot>(slot));
  }
}

PullQueue::Slot PullQueue::tree_winner(Slot l, Slot r) const noexcept {
  if (l == kNoSlot) return r;
  if (r == kNoSlot) return l;
  // Exactly the scan's fold condition with l as the running best: the
  // later slot wins only when strictly better or tied with a lower item.
  const double sl = scores_[l];
  const double sr = scores_[r];
  if (sr > sl || (sr == sl && entries_[r].item < entries_[l].item)) return r;
  return l;
}

void PullQueue::tree_set_leaf(std::size_t slot) {
  if (tree_cap_ == 0 || slot >= tree_cap_) return;
  std::size_t i = tree_cap_ + slot;
  tree_[i] = slot < entries_.size() ? static_cast<Slot>(slot) : kNoSlot;
  for (i >>= 1; i >= 1; i >>= 1) {
    tree_[i] = tree_winner(tree_[2 * i], tree_[2 * i + 1]);
  }
}

void PullQueue::rebuild_tree() {
  std::size_t cap = 16;
  while (cap < entries_.size()) cap *= 2;
  tree_cap_ = cap;
  tree_.assign(2 * cap, kNoSlot);
  for (std::size_t slot = 0; slot < entries_.size(); ++slot) {
    tree_[cap + slot] = static_cast<Slot>(slot);
  }
  for (std::size_t i = cap - 1; i >= 1; --i) {
    tree_[i] = tree_winner(tree_[2 * i], tree_[2 * i + 1]);
  }
}

}  // namespace pushpull::core
