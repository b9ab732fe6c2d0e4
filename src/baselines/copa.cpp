#include "baselines/copa.h"

#include <algorithm>

namespace pbecc::baselines {

namespace {
constexpr double kDelta = 0.5;  // default mode: 1/(2 * dq) packets/s target
constexpr double kInitialCwndSegments = 10;
constexpr util::Duration kRttMinWindow = 10 * util::kSecond;
}  // namespace

Copa::Copa()
    : cwnd_(kInitialCwndSegments),
      rtt_min_(kRttMinWindow),
      rtt_standing_(50 * util::kMillisecond) {}

void Copa::update_velocity(bool direction_up) {
  if (direction_up == last_direction_up_) {
    ++same_direction_count_;
    // Velocity doubles once the window has moved in the same direction
    // for three consecutive RTTs.
    if (same_direction_count_ >= 3) velocity_ = std::min(velocity_ * 2.0, 1024.0);
  } else {
    velocity_ = 1.0;
    same_direction_count_ = 0;
  }
  last_direction_up_ = direction_up;
}

void Copa::on_ack(const net::AckSample& s) {
  if (s.rtt <= 0) return;
  srtt_ = (7 * srtt_ + s.rtt) / 8;
  rtt_min_.update(s.now, s.rtt);
  rtt_standing_.set_window(std::max<util::Duration>(srtt_ / 2, util::kMillisecond));
  rtt_standing_.update(s.now, s.rtt);

  const util::Duration rtt_min = rtt_min_.get(s.now, s.rtt);
  const util::Duration standing = rtt_standing_.get(s.now, s.rtt);
  const double dq_sec = std::max(util::to_seconds(standing - rtt_min), 1e-5);

  // Target rate (packets/s) and the equivalent target window.
  const double target_rate = 1.0 / (kDelta * dq_sec);
  const double current_rate = cwnd_ / std::max(util::to_seconds(srtt_), 1e-4);

  const bool direction_up = current_rate < target_rate;
  // A direction flip resets velocity at once (as deployed Copa
  // implementations do) — otherwise a stale high velocity applied in the
  // new direction slams the window across its whole range in one ACK.
  if (direction_up != last_direction_up_) {
    velocity_ = 1.0;
    same_direction_count_ = 0;
    last_direction_up_ = direction_up;
    last_velocity_update_ = s.now;
  } else if (s.now - last_velocity_update_ >= srtt_) {
    // Velocity doubling once per RTT of sustained direction.
    last_velocity_update_ = s.now;
    update_velocity(direction_up);
  }

  const double step = velocity_ / (kDelta * std::max(cwnd_, 1.0));
  if (direction_up) {
    cwnd_ += step;
  } else {
    cwnd_ = std::max(cwnd_ - step, 2.0);
  }
}

void Copa::on_loss(const net::LossSample& s) {
  if (s.bytes_in_flight == 0) cwnd_ = kInitialCwndSegments;
  // Copa's default mode reacts to delay, not individual losses.
}

util::RateBps Copa::pacing_rate(util::Time) const {
  // Copa paces at 2 * cwnd / RTT (two packets per ack pacing).
  const double rtt_sec = std::max(util::to_seconds(srtt_), 1e-4);
  return 2.0 * cwnd_ * net::kDefaultMss * util::kBitsPerByte / rtt_sec;
}

double Copa::cwnd_bytes(util::Time) const { return cwnd_ * net::kDefaultMss; }

}  // namespace pbecc::baselines
