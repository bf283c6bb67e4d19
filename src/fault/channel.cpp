#include "fault/channel.hpp"

#include <stdexcept>
#include <string>

#include "rng/uniform.hpp"

namespace pushpull::fault {

namespace {

void check_probability(double p, const char* name) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("ChannelConfig: " + std::string(name) +
                                " must be a probability in [0, 1], got " +
                                std::to_string(p));
  }
}

}  // namespace

void ChannelConfig::validate() const {
  check_probability(p_good_to_bad, "p_good_to_bad");
  check_probability(p_bad_to_good, "p_bad_to_good");
  check_probability(corrupt_good, "corrupt_good");
  check_probability(corrupt_bad, "corrupt_bad");
}

double ChannelConfig::stationary_bad() const noexcept {
  const double denom = p_good_to_bad + p_bad_to_good;
  return denom > 0.0 ? p_good_to_bad / denom : 0.0;
}

double ChannelConfig::mean_corruption() const noexcept {
  const double bad = stationary_bad();
  return (1.0 - bad) * corrupt_good + bad * corrupt_bad;
}

bool GilbertElliottChannel::corrupts(const obs::Tracer& tracer, double now,
                                     std::uint64_t* flips) {
  // One transition draw, then one corruption draw — exactly two engine
  // consumptions per transmission, so the channel's random stream is a pure
  // function of the transmission index.
  const State before = state_;
  const double transition = rng::uniform01(engine_);
  if (state_ == State::kGood) {
    if (transition < config_.p_good_to_bad) state_ = State::kBad;
  } else {
    if (transition < config_.p_bad_to_good) state_ = State::kGood;
  }
  ++transmissions_;
  if (state_ != before) {
    if (flips != nullptr) ++*flips;
    tracer.emit<obs::Category::kFault>(
        now, state_ == State::kBad ? "channel_bad" : "channel_good",
        transmissions_);
  }
  if (state_ == State::kBad) ++bad_transmissions_;
  const double p =
      state_ == State::kBad ? config_.corrupt_bad : config_.corrupt_good;
  const bool corrupt = rng::uniform01(engine_) < p;
  if (corrupt) ++corrupted_;
  return corrupt;
}

// detlint:allow(D5): ownership sink — the fresh engine replaces the old
void GilbertElliottChannel::reset(rng::Xoshiro256ss engine) noexcept {
  engine_ = engine;
  state_ = State::kGood;
  transmissions_ = 0;
  corrupted_ = 0;
  bad_transmissions_ = 0;
}

}  // namespace pushpull::fault
