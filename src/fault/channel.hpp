#pragma once

#include <cstdint>

#include "obs/trace.hpp"
#include "rng/xoshiro256ss.hpp"

namespace pushpull::fault {

/// Parameters of a Gilbert–Elliott two-state burst-error downlink channel.
///
/// The channel is sampled once per downlink transmission: first the state
/// chain steps (Good→Bad with `p_good_to_bad`, Bad→Good with
/// `p_bad_to_good`), then the transmission is corrupted with the current
/// state's corruption probability. Bursty loss falls out of the chain: a
/// small `p_bad_to_good` keeps the channel in the Bad state for a geometric
/// run of transmissions, corrupting most of them.
struct ChannelConfig {
  /// Per-transmission transition probability Good → Bad.
  double p_good_to_bad = 0.0;
  /// Per-transmission transition probability Bad → Good.
  double p_bad_to_good = 1.0;
  /// Corruption probability while in the Good state.
  double corrupt_good = 0.0;
  /// Corruption probability while in the Bad state.
  double corrupt_bad = 0.0;

  /// Throws std::invalid_argument unless every probability is in [0, 1].
  void validate() const;

  /// Stationary probability of the Bad state,
  /// p_GB / (p_GB + p_BG); 0 when the chain never leaves Good.
  [[nodiscard]] double stationary_bad() const noexcept;

  /// Long-run corruption probability of one transmission under the
  /// stationary state distribution.
  [[nodiscard]] double mean_corruption() const noexcept;
};

/// The sampled channel: a state chain plus per-transmission corruption
/// draws, fed by its own dedicated engine so enabling the channel never
/// perturbs any other random stream of the simulation.
class GilbertElliottChannel {
 public:
  enum class State : std::uint8_t { kGood, kBad };

  /// `config` must already be validated; the engine is owned.
  GilbertElliottChannel(const ChannelConfig& config,
                        // detlint:allow(D5): ownership sink — consumes it
                        rng::Xoshiro256ss engine) noexcept
      : config_(config), engine_(engine) {}

  /// Steps the state chain and draws one transmission's fate.
  /// Returns true when the transmission is corrupted. When the chain
  /// changes state it emits a fault-category "channel_bad"/"channel_good"
  /// event at sim time `now` (the default tracer is inert; tracing never
  /// perturbs the stream), and `flips`, when non-null, counts the change
  /// for the CounterSet.
  [[nodiscard]] bool corrupts(const obs::Tracer& tracer = {}, double now = 0.0,
                              std::uint64_t* flips = nullptr);

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] std::uint64_t transmissions() const noexcept {
    return transmissions_;
  }
  [[nodiscard]] std::uint64_t corrupted() const noexcept { return corrupted_; }
  [[nodiscard]] std::uint64_t bad_state_transmissions() const noexcept {
    return bad_transmissions_;
  }

  /// Restores the start-of-run state (Good, zero counters) with a fresh
  /// engine, so a server reused across traces replays identically.
  // detlint:allow(D5): ownership sink — the fresh engine replaces the old
  void reset(rng::Xoshiro256ss engine) noexcept;

 private:
  ChannelConfig config_;
  rng::Xoshiro256ss engine_;
  State state_ = State::kGood;
  std::uint64_t transmissions_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t bad_transmissions_ = 0;
};

}  // namespace pushpull::fault
