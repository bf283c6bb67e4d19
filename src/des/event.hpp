#pragma once

#include <cstdint>

#include "des/small_fun.hpp"

namespace pushpull::des {

/// Simulation virtual time. Broadcast "time units" in the paper's sense: one
/// unit is the airtime of a length-1 item.
using SimTime = double;

/// Monotone id assigned to each scheduled event; doubles as the FIFO
/// tie-breaker for events scheduled at equal times and as the cancellation
/// handle.
using EventId = std::uint64_t;

/// Closure storage for event actions, inline so no scheduling path
/// allocates per event. No closure captures a PullEntry any more: the
/// largest capture is HybridServer's storm re-request (the server, a
/// Request and the crash time, 40 bytes), and a transmission end captures
/// only the server, a channel and an epoch. 104 bytes is the size that
/// PullEntry captures needed; the record can shrink.
using EventAction = SmallFun<104>;

/// A scheduled occurrence: at `time`, run `action`. Move-only: the action
/// lives inline, so copying an event would mean copying an arbitrary
/// closure — nothing in the kernel needs that, and forbidding it is what
/// lets move-only captures (moved-in pull entries) be scheduled directly.
struct Event {
  SimTime time = 0.0;
  EventId id = 0;
  EventAction action;
};

/// Heap ordering: earliest time first; FIFO among equal times.
struct EventAfter {
  [[nodiscard]] bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.id > b.id;
  }
};

}  // namespace pushpull::des
