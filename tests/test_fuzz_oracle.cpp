// Randomized oracle tests: the optimized PullQueue and EventQueue are
// driven with long random operation sequences and compared step-by-step
// against trivially-correct reference implementations. These catch index
// corruption (swap-removal), tie-break drift and cancellation bugs that
// targeted unit tests can miss.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/pull_queue.hpp"
#include "des/event_queue.hpp"
#include "rng/uniform.hpp"
#include "rng/xoshiro256ss.hpp"
#include "sched/pull/aging.hpp"
#include "sched/pull/policies.hpp"

namespace pushpull {
namespace {

// ------------------------------------------------- PullQueue vs reference

/// Reference pull queue: a plain map of item -> request list; selection is
/// a naive scan with the identical scoring and tie-break rule.
class ReferencePullQueue {
 public:
  void add(const workload::Request& r, double priority, double length,
           double popularity) {
    auto& e = entries_[r.item];
    if (e.pending.empty()) {
      e.item = r.item;
      e.length = length;
      e.popularity = popularity;
      e.first_arrival = r.arrival;
      e.total_priority = 0.0;
      e.total_arrival = 0.0;
    }
    e.pending.push_back(r);
    e.total_priority += priority;
    e.total_arrival += r.arrival;
  }

  bool remove_request(catalog::ItemId item, workload::RequestId id,
                      double priority) {
    auto it = entries_.find(item);
    if (it == entries_.end()) return false;
    auto& e = it->second;
    for (auto p = e.pending.begin(); p != e.pending.end(); ++p) {
      if (p->id == id) {
        e.total_arrival -= p->arrival;
        e.total_priority -= priority;
        e.pending.erase(p);
        if (e.pending.empty()) {
          entries_.erase(it);
        } else {
          e.first_arrival = e.pending.front().arrival;
          for (const auto& q : e.pending) {
            if (q.arrival < e.first_arrival) e.first_arrival = q.arrival;
          }
        }
        return true;
      }
    }
    return false;
  }

  std::optional<sched::PullEntry> extract_best(
      const sched::PullPolicy& policy, const sched::PullContext& ctx) {
    if (entries_.empty()) return std::nullopt;
    const sched::PullEntry* best = nullptr;
    double best_score = 0.0;
    for (const auto& [item, e] : entries_) {
      const double s = policy.score(e, ctx);
      if (best == nullptr || s > best_score ||
          (s == best_score && e.item < best->item)) {
        best = &e;
        best_score = s;
      }
    }
    sched::PullEntry out = *best;
    entries_.erase(out.item);
    return out;
  }

  std::optional<sched::PullEntry> extract(catalog::ItemId item) {
    auto it = entries_.find(item);
    if (it == entries_.end()) return std::nullopt;
    sched::PullEntry out = it->second;
    entries_.erase(it);
    return out;
  }

  [[nodiscard]] std::size_t total_requests() const {
    std::size_t n = 0;
    for (const auto& [item, e] : entries_) n += e.pending.size();
    return n;
  }
  [[nodiscard]] std::size_t distinct_items() const { return entries_.size(); }

 private:
  std::map<catalog::ItemId, sched::PullEntry> entries_;
};

/// E[L_pull] for one extraction: usually the running area/now the servers
/// compute, otherwise a value outside the band selection's ranges (0, a
/// subnormal-adjacent or overflow-adjacent scale, inf, NaN). Varying it on
/// every extraction is what lets a stale or mis-scaled cached key fail.
double draw_queue_len(rng::Xoshiro256ss& eng, double area, double now) {
  static constexpr double kOutliers[] = {
      0.0, 1e-300, 1e300, std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  const double dice = rng::uniform01(eng);
  if (dice < 0.75) return now > 0.0 ? area / now : 1.0;
  if (dice < 0.8) return 1.0;
  return kOutliers[rng::uniform_below(eng, std::size(kOutliers))];
}

/// Drives the indexed PullQueue, the O(n) reference-scan PullQueue and the
/// naive map oracle through one random schedule (adds, impatience removals,
/// direct evictions — the shed/blocking path — and policy extractions),
/// asserting all three agree after every operation.
void run_pull_fuzz(const sched::PullPolicy& policy, std::uint64_t seed,
                   int ops) {
  core::PullQueue fast;  // default engine: indexed (dirty-set + max-heap)
  core::PullQueue scan(core::PullQueue::SelectMode::kScan);
  ReferencePullQueue oracle;

  rng::Xoshiro256ss eng(seed);
  double clock = 0.0;
  double area = 0.0;  // time-weighted queue length, as the servers keep it
  workload::RequestId next_id = 0;
  std::vector<workload::Request> live;  // queued requests, for removals

  for (int op = 0; op < ops; ++op) {
    clock += 0.25;
    area += 0.25 * static_cast<double>(oracle.total_requests());
    const double dice = rng::uniform01(eng);
    if (dice < 0.5) {
      // Insert a request for a random item.
      workload::Request r;
      r.id = next_id++;
      r.item = static_cast<catalog::ItemId>(rng::uniform_below(eng, 25));
      r.cls = static_cast<workload::ClassId>(rng::uniform_below(eng, 3));
      r.arrival = clock;
      const double priority = static_cast<double>(3 - r.cls);
      const double length = 1.0 + static_cast<double>(r.item % 5);
      const double popularity = 1.0 / (1.0 + static_cast<double>(r.item));
      fast.add(r, priority, length, popularity);
      scan.add(r, priority, length, popularity);
      oracle.add(r, priority, length, popularity);
      live.push_back(r);
    } else if (dice < 0.68 && !live.empty()) {
      // Remove a random queued request (impatience path).
      const auto idx =
          static_cast<std::size_t>(rng::uniform_below(eng, live.size()));
      const workload::Request victim = live[idx];
      const double priority = static_cast<double>(3 - victim.cls);
      const bool a = fast.remove_request(victim.item, victim.id, priority);
      const bool s = scan.remove_request(victim.item, victim.id, priority);
      const bool b = oracle.remove_request(victim.item, victim.id, priority);
      ASSERT_EQ(a, b);
      ASSERT_EQ(s, b);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (dice < 0.76) {
      // Evict a specific item outright (the shed / blocking-drop path).
      const auto item =
          static_cast<catalog::ItemId>(rng::uniform_below(eng, 25));
      const auto a = fast.extract(item);
      const auto s = scan.extract(item);
      const auto b = oracle.extract(item);
      ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
      ASSERT_EQ(s.has_value(), b.has_value()) << "op " << op;
      if (a.has_value()) {
        ASSERT_EQ(a->pending.size(), b->pending.size());
        ASSERT_EQ(s->pending.size(), b->pending.size());
        for (const auto& r : a->pending) {
          for (auto it = live.begin(); it != live.end(); ++it) {
            if (it->id == r.id) {
              live.erase(it);
              break;
            }
          }
        }
      }
    } else {
      // Extract the best entry under the policy.
      const sched::PullContext ctx{clock, draw_queue_len(eng, area, clock)};
      const auto a = fast.extract_best(policy, ctx);
      const auto s = scan.extract_best(policy, ctx);
      // NaN scores make the fold order-dependent: the slot-order scan is
      // then the only reference, and the map oracle just drops the item.
      const bool nan_scores = std::isnan(ctx.expected_queue_len);
      const auto b = nan_scores && s.has_value()
                         ? oracle.extract(s->item)
                         : oracle.extract_best(policy, ctx);
      ASSERT_EQ(a.has_value(), b.has_value());
      ASSERT_EQ(s.has_value(), b.has_value());
      if (a.has_value()) {
        ASSERT_EQ(a->item, s->item)
            << "op " << op << " E " << ctx.expected_queue_len;
        ASSERT_EQ(s->item, b->item) << "op " << op;
        ASSERT_EQ(a->pending.size(), b->pending.size());
        ASSERT_DOUBLE_EQ(a->total_priority, b->total_priority);
        // Drop the extracted requests from the live set.
        for (const auto& r : a->pending) {
          for (auto it = live.begin(); it != live.end(); ++it) {
            if (it->id == r.id) {
              live.erase(it);
              break;
            }
          }
        }
      }
    }
    ASSERT_EQ(fast.total_requests(), oracle.total_requests());
    ASSERT_EQ(scan.total_requests(), oracle.total_requests());
    ASSERT_EQ(fast.distinct_items(), oracle.distinct_items());
    ASSERT_EQ(scan.distinct_items(), oracle.distinct_items());
  }
}

class PullQueueOracleTest
    : public ::testing::TestWithParam<sched::PullPolicyKind> {};

TEST_P(PullQueueOracleTest, RandomOpsMatchReference) {
  const auto policy = sched::make_pull_policy(GetParam(), 0.4);
  run_pull_fuzz(*policy, 0xFACE + static_cast<std::uint64_t>(GetParam()),
                8000);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PullQueueOracleTest,
    ::testing::Values(sched::PullPolicyKind::kFcfs,
                      sched::PullPolicyKind::kMrf,
                      sched::PullPolicyKind::kStretch,
                      sched::PullPolicyKind::kPriority,
                      sched::PullPolicyKind::kRxw,
                      sched::PullPolicyKind::kLwf,
                      sched::PullPolicyKind::kImportance,
                      sched::PullPolicyKind::kImportanceQueueAware),
    [](const ::testing::TestParamInfo<sched::PullPolicyKind>& param_info) {
      std::string name(sched::to_string(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

using ContextUse = sched::PullPolicy::ContextUse;

TEST(PullQueueOracle, AgedImportanceMatchesReference) {
  // Aging reads ctx.now, so the indexed engine must detect the
  // ctx-dependence and defer to the scan — verified against the oracle.
  const auto policy = sched::make_aged_importance(0.4, 0.35);
  EXPECT_EQ(policy->context_use(), ContextUse::kFull);
  run_pull_fuzz(*policy, 0xA9ED, 8000);
}

TEST(PullQueueOracle, ZeroRateAgingStaysIndexed) {
  // rate = 0 makes the decorator transparent, so the inner importance
  // policy's invariance carries through and the cached path is exercised.
  const auto policy = sched::make_aged_importance(0.4, 0.0);
  EXPECT_EQ(policy->context_use(), ContextUse::kEntryOnly);
  run_pull_fuzz(*policy, 0xA9ED0, 8000);
}

TEST(PullQueueOracle, QueueAwareImportanceIsBandSelected) {
  // Eq. 6 must take the band path, not fall back to the scan silently:
  // the fuzz runs above then check that path against the references.
  for (const double alpha : {0.0, 0.4, 1.0}) {
    const auto policy = sched::make_pull_policy(
        sched::PullPolicyKind::kImportanceQueueAware, alpha);
    EXPECT_EQ(policy->context_use(), ContextUse::kScaledByQueueLen)
        << "alpha " << alpha;
    const auto aged = std::make_unique<sched::AgingPolicy>(
        sched::make_pull_policy(sched::PullPolicyKind::kImportanceQueueAware,
                                alpha),
        0.0);
    EXPECT_EQ(aged->context_use(), ContextUse::kScaledByQueueLen);
  }
  // A subnormal alpha would cost alpha*p its relative accuracy.
  EXPECT_EQ(sched::make_pull_policy(
                sched::PullPolicyKind::kImportanceQueueAware, 1e-310)
                ->context_use(),
            ContextUse::kFull);
}

TEST(PullQueueOracle, QueueAwareKeysUlpsApartAndTied) {
  // Keys 0-4 ulps apart, with exact ties across items: the band holds
  // several candidates and the fold over it must reproduce the scan's tie
  // rule (ties toward the lower item id) under every scale.
  const auto policy = sched::make_pull_policy(
      sched::PullPolicyKind::kImportanceQueueAware, 0.4);
  core::PullQueue fast;
  core::PullQueue scan(core::PullQueue::SelectMode::kScan);
  ReferencePullQueue oracle;
  rng::Xoshiro256ss eng(0x01D5);
  workload::RequestId next_id = 0;
  double clock = 0.0;
  double area = 0.0;
  const double base = 0.3;
  for (int round = 0; round < 3000; ++round) {
    clock += 0.5;
    area += 0.5 * static_cast<double>(oracle.total_requests());
    for (int j = 0; j < 3; ++j) {
      workload::Request r;
      r.id = next_id++;
      r.item = static_cast<catalog::ItemId>(rng::uniform_below(eng, 40));
      r.arrival = clock;
      // Popularity is a pure function of the item, 0-4 ulps above base:
      // items sharing an offset tie exactly when their Q_i agree.
      double popularity = base;
      for (std::uint32_t k = 0; k < r.item % 5; ++k) {
        popularity = std::nextafter(popularity, 1.0);
      }
      fast.add(r, 1.0, 1.0, popularity);
      scan.add(r, 1.0, 1.0, popularity);
      oracle.add(r, 1.0, 1.0, popularity);
    }
    const sched::PullContext ctx{clock, draw_queue_len(eng, area, clock)};
    const auto a = fast.extract_best(*policy, ctx);
    const auto s = scan.extract_best(*policy, ctx);
    const auto b = std::isnan(ctx.expected_queue_len)
                       ? oracle.extract(s->item)
                       : oracle.extract_best(*policy, ctx);
    ASSERT_TRUE(a.has_value() && s.has_value() && b.has_value());
    ASSERT_EQ(a->item, s->item) << "round " << round;
    ASSERT_EQ(s->item, b->item) << "round " << round;
  }
}

TEST(PullQueueOracle, PolicySwapsInvalidateCachedScores) {
  // Alternating between two distinct policy objects (different alphas, and
  // a ctx-dependent interloper) on the SAME queues must rescore correctly
  // every time — this is the cache-invalidation-on-policy-change path.
  core::PullQueue fast;
  core::PullQueue scan(core::PullQueue::SelectMode::kScan);
  const auto gamma_low = sched::make_pull_policy(
      sched::PullPolicyKind::kImportance, 0.1);
  const auto gamma_high = sched::make_pull_policy(
      sched::PullPolicyKind::kImportance, 0.9);
  const auto rxw = sched::make_pull_policy(sched::PullPolicyKind::kRxw);
  const sched::PullPolicy* const policies[] = {gamma_low.get(),
                                               gamma_high.get(), rxw.get()};

  rng::Xoshiro256ss eng(0x50AB);
  workload::RequestId next_id = 0;
  double clock = 0.0;
  for (int round = 0; round < 600; ++round) {
    clock += 1.0;
    for (int j = 0; j < 4; ++j) {
      workload::Request r;
      r.id = next_id++;
      r.item = static_cast<catalog::ItemId>(rng::uniform_below(eng, 12));
      r.arrival = clock;
      const double priority = 1.0 + rng::uniform01(eng);
      const double length = 1.0 + static_cast<double>(r.item % 3);
      fast.add(r, priority, length, 0.5);
      scan.add(r, priority, length, 0.5);
    }
    const sched::PullContext ctx{clock, 2.0};
    const auto& policy = *policies[round % 3];
    const auto a = fast.extract_best(policy, ctx);
    const auto s = scan.extract_best(policy, ctx);
    ASSERT_EQ(a.has_value(), s.has_value());
    if (a.has_value()) {
      ASSERT_EQ(a->item, s->item) << "round " << round;
    }
  }
}

TEST(PullQueueOracle, DeepQueueMatchesScan) {
  // deep-pull's shape: thousands of live entries over 10,000 item ids, so
  // the heap is 12 levels deep where run_pull_fuzz's 25 ids keep it at 5.
  // The indexed queue is checked against its kScan twin after every add,
  // removal, eviction and extraction.
  constexpr std::uint64_t kItems = 10000;
  for (const auto kind : {sched::PullPolicyKind::kImportance,
                          sched::PullPolicyKind::kImportanceQueueAware}) {
    const auto policy = sched::make_pull_policy(kind, 0.5);
    core::PullQueue fast;
    core::PullQueue scan(core::PullQueue::SelectMode::kScan);
    rng::Xoshiro256ss eng(0xDEE9 + static_cast<std::uint64_t>(kind));
    std::vector<workload::Request> live;  // may still hold served requests
    std::vector<char> queued;             // by request id
    // Takes a random queued request out of `live`, dropping served ones.
    const auto take_live = [&]() -> std::optional<workload::Request> {
      while (!live.empty()) {
        const auto idx =
            static_cast<std::size_t>(rng::uniform_below(eng, live.size()));
        const workload::Request r = live[idx];
        live[idx] = live.back();
        live.pop_back();
        if (queued[r.id] != 0) return r;
      }
      return std::nullopt;
    };
    const auto unqueue = [&](const std::optional<sched::PullEntry>& e) {
      if (!e.has_value()) return;
      for (const auto& r : e->pending) queued[r.id] = 0;
    };
    double clock = 0.0;
    double area = 0.0;
    std::size_t peak = 0;
    for (int op = 0; op < 30000; ++op) {
      clock += 0.25;
      area += 0.25 * static_cast<double>(scan.total_requests());
      // The first 6,000 ops only add, to reach depth; then the mix holds
      // about 4,000 live entries.
      const double dice = op < 6000 ? 0.0 : rng::uniform01(eng);
      if (dice < 0.6) {
        workload::Request r;
        r.id = queued.size();
        r.item = static_cast<catalog::ItemId>(rng::uniform_below(eng, kItems));
        r.cls = static_cast<workload::ClassId>(rng::uniform_below(eng, 3));
        r.arrival = clock;
        const double priority = static_cast<double>(3 - r.cls);
        const double length = 1.0 + static_cast<double>(r.item % 5);
        const double popularity = 1.0 / (1.0 + static_cast<double>(r.item));
        fast.add(r, priority, length, popularity);
        scan.add(r, priority, length, popularity);
        live.push_back(r);
        queued.push_back(1);
      } else if (dice < 0.7) {
        const auto victim = take_live();
        if (!victim.has_value()) continue;
        const double priority = static_cast<double>(3 - victim->cls);
        ASSERT_TRUE(fast.remove_request(victim->item, victim->id, priority));
        ASSERT_TRUE(scan.remove_request(victim->item, victim->id, priority));
        queued[victim->id] = 0;
      } else if (dice < 0.75) {
        // An item id drawn outright: a live entry about 40% of the time.
        const auto item =
            static_cast<catalog::ItemId>(rng::uniform_below(eng, kItems));
        const auto a = fast.extract(item);
        const auto b = scan.extract(item);
        ASSERT_EQ(a.has_value(), b.has_value()) << "op " << op;
        unqueue(b);
      } else {
        const sched::PullContext ctx{clock, draw_queue_len(eng, area, clock)};
        const auto a = fast.extract_best(*policy, ctx);
        const auto b = scan.extract_best(*policy, ctx);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a.has_value()) {
          ASSERT_EQ(a->item, b->item)
              << "op " << op << " E " << ctx.expected_queue_len;
          ASSERT_EQ(a->pending.size(), b->pending.size());
        }
        unqueue(b);
      }
      ASSERT_EQ(fast.total_requests(), scan.total_requests()) << "op " << op;
      ASSERT_EQ(fast.distinct_items(), scan.distinct_items()) << "op " << op;
      peak = std::max(peak, fast.distinct_items());
    }
    EXPECT_GT(peak, 3000u) << sched::to_string(kind);
  }
}

// ------------------------------------------------ EventQueue vs multimap

TEST(EventQueueOracle, RandomOpsMatchMultimap) {
  des::EventQueue fast;
  // Oracle: (time, id) ordered set mirrors the heap's contract exactly.
  std::set<std::pair<double, des::EventId>> oracle;

  rng::Xoshiro256ss eng(0xBEEF);
  des::EventId next_id = 1;
  std::vector<des::EventId> pending_ids;

  for (int op = 0; op < 20000; ++op) {
    const double dice = rng::uniform01(eng);
    if (dice < 0.5) {
      const double when = rng::uniform(eng, 0.0, 1000.0);
      const des::EventId id = next_id++;
      fast.push(des::Event{when, id, [] {}});
      oracle.emplace(when, id);
      pending_ids.push_back(id);
    } else if (dice < 0.65 && !pending_ids.empty()) {
      // Cancel a random pending event (or an already-fired id).
      const auto idx = static_cast<std::size_t>(
          rng::uniform_below(eng, pending_ids.size()));
      const des::EventId id = pending_ids[idx];
      bool oracle_had = false;
      for (auto it = oracle.begin(); it != oracle.end(); ++it) {
        if (it->second == id) {
          oracle.erase(it);
          oracle_had = true;
          break;
        }
      }
      ASSERT_EQ(fast.cancel(id), oracle_had);
      pending_ids.erase(pending_ids.begin() +
                        static_cast<std::ptrdiff_t>(idx));
    } else if (!oracle.empty()) {
      ASSERT_FALSE(fast.empty());
      ASSERT_DOUBLE_EQ(fast.next_time(), oracle.begin()->first);
      const des::Event event = fast.pop();
      ASSERT_EQ(event.id, oracle.begin()->second);
      oracle.erase(oracle.begin());
      for (auto it = pending_ids.begin(); it != pending_ids.end(); ++it) {
        if (*it == event.id) {
          pending_ids.erase(it);
          break;
        }
      }
    } else {
      ASSERT_TRUE(fast.empty());
    }
    ASSERT_EQ(fast.size(), oracle.size());
  }
}

}  // namespace
}  // namespace pushpull
