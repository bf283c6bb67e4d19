#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "sched/push/broadcast_disks.hpp"
#include "sched/push/flat.hpp"
#include "sched/push/square_root_rule.hpp"

namespace pushpull::sched {

// ---------------------------------------------------------------- FlatPush

FlatPush::FlatPush(std::size_t cutoff) : cutoff_(cutoff) {
  if (cutoff == 0) {
    throw std::invalid_argument("FlatPush: push set must be non-empty");
  }
}

catalog::ItemId FlatPush::next() {
  const auto item = static_cast<catalog::ItemId>(position_);
  position_ = (position_ + 1) % cutoff_;
  return item;
}

// ------------------------------------------------------ BroadcastDisksPush

BroadcastDisksPush::BroadcastDisksPush(const catalog::Catalog& cat,
                                       std::size_t cutoff,
                                       std::size_t num_disks) {
  if (cutoff == 0) {
    throw std::invalid_argument(
        "BroadcastDisksPush: push set must be non-empty");
  }
  if (num_disks == 0) {
    throw std::invalid_argument("BroadcastDisksPush: need at least one disk");
  }
  if (cutoff > cat.size()) {
    throw std::invalid_argument("BroadcastDisksPush: cutoff beyond catalog");
  }
  num_disks = std::min(num_disks, cutoff);

  // Items are already in popularity-rank order; disk d gets the d-th
  // contiguous band (near-equal sizes, hot bands first).
  std::vector<std::vector<catalog::ItemId>> disks(num_disks);
  for (std::size_t i = 0; i < cutoff; ++i) {
    const std::size_t d = i * num_disks / cutoff;
    disks[d].push_back(static_cast<catalog::ItemId>(i));
  }

  // Relative frequencies: hottest disk spins num_disks times per major
  // cycle, the coldest once.
  std::vector<std::size_t> freq(num_disks);
  for (std::size_t d = 0; d < num_disks; ++d) freq[d] = num_disks - d;
  std::size_t cycle_len = 1;
  for (std::size_t f : freq) cycle_len = std::lcm(cycle_len, f);

  // Chunking: disk d is split into cycle_len / freq[d] chunks; minor cycle m
  // carries chunk (m mod chunks_d) of every disk.
  std::vector<std::size_t> num_chunks(num_disks);
  for (std::size_t d = 0; d < num_disks; ++d) {
    num_chunks[d] = cycle_len / freq[d];
  }

  for (std::size_t minor = 0; minor < cycle_len; ++minor) {
    for (std::size_t d = 0; d < num_disks; ++d) {
      const auto& disk = disks[d];
      if (disk.empty()) continue;
      const std::size_t chunks = num_chunks[d];
      const std::size_t chunk = minor % chunks;
      // Chunk boundaries spread the disk's items as evenly as possible.
      const std::size_t begin = disk.size() * chunk / chunks;
      const std::size_t end = disk.size() * (chunk + 1) / chunks;
      for (std::size_t i = begin; i < end; ++i) cycle_.push_back(disk[i]);
    }
  }
}

catalog::ItemId BroadcastDisksPush::next() {
  const catalog::ItemId item = cycle_[position_];
  position_ = (position_ + 1) % cycle_.size();
  return item;
}

// ----------------------------------------------------- SquareRootRulePush

SquareRootRulePush::SquareRootRulePush(const catalog::Catalog& cat,
                                       std::size_t cutoff) {
  if (cutoff == 0) {
    throw std::invalid_argument(
        "SquareRootRulePush: push set must be non-empty");
  }
  if (cutoff > cat.size()) {
    throw std::invalid_argument("SquareRootRulePush: cutoff beyond catalog");
  }
  spacing_.resize(cutoff);
  weight_.resize(cutoff);
  lengths_.resize(cutoff);
  for (std::size_t i = 0; i < cutoff; ++i) {
    const auto& item = cat.item(static_cast<catalog::ItemId>(i));
    lengths_[i] = item.length;
    const double prob = std::max(item.access_prob, 1e-12);
    spacing_[i] = std::sqrt(item.length / prob);
    weight_[i] = prob / item.length;
  }
  reset();
}

void SquareRootRulePush::reset() {
  clock_ = 0.0;
  // Stagger the virtual last-broadcast instants so the start-up transient
  // does not synchronize items of equal weight.
  last_.resize(spacing_.size());
  for (std::size_t i = 0; i < last_.size(); ++i) {
    last_[i] = -spacing_[i];
  }
}

catalog::ItemId SquareRootRulePush::next() {
  std::size_t best = 0;
  double best_gain = -1.0;
  for (std::size_t i = 0; i < weight_.size(); ++i) {
    const double idle = clock_ - last_[i];
    const double gain = idle * idle * weight_[i];
    if (gain > best_gain) {
      best = i;
      best_gain = gain;
    }
  }
  last_[best] = clock_;
  clock_ += lengths_[best];
  return static_cast<catalog::ItemId>(best);
}

// ------------------------------------------------------------------ factory

std::string_view to_string(PushPolicyKind kind) noexcept {
  switch (kind) {
    case PushPolicyKind::kFlat:
      return "flat";
    case PushPolicyKind::kBroadcastDisks:
      return "broadcast-disks";
    case PushPolicyKind::kSquareRootRule:
      return "square-root-rule";
  }
  return "unknown";
}

PushPolicyKind parse_push_policy(std::string_view name) {
  for (const auto kind :
       {PushPolicyKind::kFlat, PushPolicyKind::kBroadcastDisks,
        PushPolicyKind::kSquareRootRule}) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown push policy: " + std::string(name));
}

std::unique_ptr<PushScheduler> make_push_scheduler(PushPolicyKind kind,
                                                   const catalog::Catalog& cat,
                                                   std::size_t cutoff) {
  switch (kind) {
    case PushPolicyKind::kFlat:
      if (cutoff > cat.size()) {
        throw std::invalid_argument("make_push_scheduler: cutoff beyond catalog");
      }
      return std::make_unique<FlatPush>(cutoff);
    case PushPolicyKind::kBroadcastDisks:
      return std::make_unique<BroadcastDisksPush>(cat, cutoff,
                                                  std::min<std::size_t>(3, cutoff));
    case PushPolicyKind::kSquareRootRule:
      return std::make_unique<SquareRootRulePush>(cat, cutoff);
  }
  throw std::invalid_argument("make_push_scheduler: unknown kind");
}

}  // namespace pushpull::sched
