// Crash-storm accounting for server tests. A StormAudit rides a run as its
// RunListener and external tracer, then replays what it saw: at every
// crash, the storm must hold exactly the requests the crash took from the
// server — every request queued for pull (cold recovery wipes them all),
// every passenger of a pull on air on any channel, and the passengers of
// an on-air broadcast whose item had left the push set. A voided
// transmission must never end.
//
// The push set is read as the configured K plus the ladder's widen-push
// boosts, so the audit applies to a static cutoff controller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/hybrid_server.hpp"
#include "obs/category.hpp"
#include "obs/trace.hpp"

namespace pushpull::test {

class StormAudit final : public core::RunListener {
 public:
  StormAudit()
      : sink_(std::size_t{1} << 22,
              obs::category_bit(obs::Category::kPush) |
                  obs::category_bit(obs::Category::kPull) |
                  obs::category_bit(obs::Category::kCutoff) |
                  obs::category_bit(obs::Category::kCrash)) {}

  /// Hand this to HybridServer::set_tracer (with config().obs off).
  [[nodiscard]] obs::Tracer tracer() { return obs::Tracer(&sink_); }

  void on_queue_len(std::size_t len) override {
    // The sink's next sequence number places the sample among its events.
    queue_len_.emplace_back(sink_.emitted(), len);
  }

  struct Verdict {
    std::uint64_t crashes = 0;
    /// Crashes that voided a pull with passengers.
    std::uint64_t pulls_stormed = 0;
    /// Crashes that caught a broadcast with passengers on an item outside
    /// the push set.
    std::uint64_t broadcasts_stormed = 0;
    /// Empty when every storm balanced; otherwise one line per mismatch.
    std::string failures;
  };

  /// Replays the run; `cutoff` is the configured K.
  [[nodiscard]] Verdict check(std::size_t cutoff) const {
    Verdict verdict;
    if (sink_.dropped() != 0) verdict.failures += "trace ring overflowed\n";
    struct Air {
      bool push = false;
      std::uint64_t item = 0;
      std::uint64_t audience = 0;
    };
    std::vector<Air> on_air;
    std::vector<Air> at_crash;
    std::size_t cut = cutoff;
    std::size_t queued = 0;
    std::size_t sample = 0;
    for (const obs::TraceEvent& e : sink_.snapshot()) {
      while (sample < queue_len_.size() && queue_len_[sample].first <= e.seq) {
        queued = queue_len_[sample++].second;
      }
      const std::string_view name = e.name;
      const bool push = e.category == obs::Category::kPush;
      if (e.category == obs::Category::kCutoff && name == "boost") {
        cut = e.b;
      } else if ((push || e.category == obs::Category::kPull) &&
                 name == "tx_start") {
        on_air.push_back(Air{push, e.a, e.b});
      } else if ((push || e.category == obs::Category::kPull) &&
                 name == "tx_end") {
        bool found = false;
        for (auto it = on_air.begin(); it != on_air.end(); ++it) {
          if (it->push == push && it->item == e.a && it->audience == e.b) {
            on_air.erase(it);
            found = true;
            break;
          }
        }
        if (!found) {
          verdict.failures += "t=" + std::to_string(e.time) +
                              ": a transmission of item " +
                              std::to_string(e.a) + " ended off the air\n";
        }
      } else if (e.category == obs::Category::kCrash && name == "crash") {
        ++verdict.crashes;
        at_crash = std::move(on_air);
        on_air.clear();
      } else if (e.category == obs::Category::kCrash && name == "storm") {
        std::uint64_t expected = queued;
        bool pulls = false;
        bool broadcast = false;
        for (const Air& air : at_crash) {
          if (air.push && air.item < cut) continue;  // re-parked
          expected += air.audience;
          if (air.audience == 0) continue;
          (air.push ? broadcast : pulls) = true;
        }
        verdict.pulls_stormed += pulls ? 1 : 0;
        verdict.broadcasts_stormed += broadcast ? 1 : 0;
        if (e.a != expected) {
          verdict.failures += "t=" + std::to_string(e.time) + ": storm of " +
                              std::to_string(e.a) + ", expected " +
                              std::to_string(expected) + "\n";
        }
        at_crash.clear();
      }
    }
    return verdict;
  }

 private:
  obs::TraceSink sink_;
  // (sink sequence number when sampled, pull-queue length)
  std::vector<std::pair<std::uint64_t, std::size_t>> queue_len_;
};

}  // namespace pushpull::test
