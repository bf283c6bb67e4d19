#pragma once

#include <cstdint>
#include <vector>

#include "catalog/catalog.hpp"
#include "rng/xoshiro256ss.hpp"
#include "workload/lru_cache.hpp"
#include "workload/population.hpp"
#include "workload/request.hpp"

namespace pushpull::workload {

/// Request source with client-side caching: a finite population of
/// identified clients, each holding a small LRU cache, generates Poisson
/// demand; a demand whose item is in the client's cache is satisfied
/// locally (zero delay, never reaches the server), everything else is
/// emitted as a Request and the item enters the cache (the client will
/// receive and keep it).
///
/// This is the client model of the Broadcast Disks line of work grafted
/// onto the paper's class-prioritized population; `bench/figures
/// ext_client_cache` uses it to show how terminal memory offloads the
/// downlink.
class CachedRequestGenerator {
 public:
  /// `clients_per_class[c]` identified clients in class c (must be >= 1);
  /// each owns an LRU cache of `cache_capacity` items (0 disables caching).
  CachedRequestGenerator(const catalog::Catalog& cat,
                         const ClientPopulation& pop, double arrival_rate,
                         std::vector<std::size_t> clients_per_class,
                         std::size_t cache_capacity, std::uint64_t seed);

  /// Convenience: `total_clients` split across classes by population share
  /// (at least one client per class).
  CachedRequestGenerator(const catalog::Catalog& cat,
                         const ClientPopulation& pop, double arrival_rate,
                         std::size_t total_clients,
                         std::size_t cache_capacity, std::uint64_t seed);

  /// Next request that MISSED its client's cache. Cache hits are absorbed
  /// internally and counted.
  [[nodiscard]] Request next();

  [[nodiscard]] std::uint64_t demands() const noexcept { return demands_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] double hit_ratio() const noexcept {
    return demands_ ? static_cast<double>(hits_) /
                          static_cast<double>(demands_)
                    : 0.0;
  }
  [[nodiscard]] std::uint64_t hits_for_class(ClassId cls) const {
    return class_hits_[cls];
  }
  [[nodiscard]] std::size_t num_clients() const noexcept {
    return caches_.size();
  }

 private:
  static std::vector<std::size_t> split_clients(const ClientPopulation& pop,
                                                std::size_t total);

  const catalog::Catalog* catalog_;
  const ClientPopulation* population_;
  double rate_;
  rng::Xoshiro256ss arrivals_;
  rng::Xoshiro256ss items_;
  rng::Xoshiro256ss classes_;
  rng::Xoshiro256ss client_pick_;

  // Clients are stored contiguously; class c owns the id range
  // [class_offset_[c], class_offset_[c+1]).
  std::vector<std::size_t> class_offset_;
  std::vector<LruCache> caches_;

  des::SimTime clock_ = 0.0;
  RequestId next_id_ = 0;
  std::uint64_t demands_ = 0;
  std::uint64_t hits_ = 0;
  std::vector<std::uint64_t> class_hits_;
};

}  // namespace pushpull::workload
