#include "serve/load_driver.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "workload/request_generator.hpp"

namespace pushpull::serve {

LoadDriver::LoadDriver(const catalog::Catalog& cat,
                       const workload::ClientPopulation& pop,
                       double target_qps, double duration,
                       std::uint64_t seed) {
  workload::RequestGenerator gen(cat, pop, target_qps, seed);
  plan_ = workload::Trace::record_until(gen, duration);
}

LoadDriver::LoadDriver(workload::Trace plan) : plan_(std::move(plan)) {}

workload::Request LoadDriver::take() {
  if (next_ >= plan_.size()) {
    throw std::logic_error(
        "LoadDriver: take() past the end of the plan; peek() first");
  }
  return plan_[next_++];
}

void LoadDriver::run_realtime(CompletionQueue& queue, Clock& clock,
                              std::size_t pacers) {
  if (pacers == 0) {
    throw std::invalid_argument("LoadDriver: pacers must be >= 1");
  }
  // Round-robin sharding: pacer p owns plan indices p, p+pacers, ... Each
  // shard's arrivals are in planned order, so a single pacer reproduces the
  // plan's order exactly; multiple pacers may interleave at the queue, which
  // is why load_trace sorts the recording by (arrival, id).
  std::vector<std::thread> threads;
  threads.reserve(pacers);
  for (std::size_t p = 0; p < pacers; ++p) {
    threads.emplace_back([this, &queue, &clock, p, pacers]() {
      for (std::size_t i = p; i < plan_.size(); i += pacers) {
        const workload::Request& planned = plan_[i];
        // seconds_until is a wait budget, not a timestamp (Clock contract);
        // re-check after each sleep so oversleep never compounds.
        for (;;) {
          const double budget = clock.seconds_until(planned.arrival);
          if (budget <= 0.0) break;
          std::this_thread::sleep_for(std::chrono::duration<double>(budget));
        }
        Completion c;
        c.kind = CompletionKind::kArrival;
        c.time = clock.now();
        c.request = planned;
        if (!queue.post(c)) return;  // queue closed under us: stop offering
      }
    });
  }
  for (auto& t : threads) t.join();
  queue.close();
}

}  // namespace pushpull::serve
