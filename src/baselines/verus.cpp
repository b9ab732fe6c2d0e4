#include "baselines/verus.h"

#include <algorithm>
#include <cmath>

namespace pbecc::baselines {

namespace {
constexpr util::Duration kEpoch = 5 * util::kMillisecond;
// Additive window increase when delay is low (segments), and the
// multiplicative-ish decrease when it is high.
constexpr double kDelta1 = 1.0;
constexpr double kDelta2 = 2.0;
constexpr double kR = 2.0;  // delay-ratio threshold D_est / D_min
constexpr int kMaxWindowSegments = 4000;
constexpr double kEwmaAlpha = 0.25;
}  // namespace

Verus::Verus() {
  profile_.assign(static_cast<std::size_t>(kMaxWindowSegments) + 1, 0.0);
}

void Verus::on_ack(const net::AckSample& s) {
  if (s.rtt <= 0) return;
  srtt_ = (7 * srtt_ + s.rtt) / 8;
  const double delay_ms = util::to_millis(s.rtt);
  d_min_ms_ = std::min(d_min_ms_, delay_ms);
  d_est_ms_ = d_est_ms_ == 0
                  ? delay_ms
                  : (1 - kEwmaAlpha) * d_est_ms_ + kEwmaAlpha * delay_ms;

  // Update the delay profile at the in-flight window that produced this
  // sample.
  const auto w = static_cast<std::size_t>(std::clamp<double>(
      static_cast<double>(s.bytes_in_flight) / net::kDefaultMss, 1.0,
      static_cast<double>(kMaxWindowSegments)));
  profile_[w] = profile_[w] == 0
                    ? delay_ms
                    : 0.8 * profile_[w] + 0.2 * delay_ms;

  if (s.now - last_epoch_ >= kEpoch) {
    last_epoch_ = s.now;
    epoch_update(s.now);
  }
}

int Verus::window_for_delay(double target_delay_ms) const {
  // Largest window whose profiled delay does not exceed the target;
  // unprofiled entries inherit the nearest lower profiled value.
  int best = 2;
  double last_known = 0;
  for (int w = 1; w <= kMaxWindowSegments; ++w) {
    const double d = profile_[static_cast<std::size_t>(w)];
    if (d > 0) last_known = d;
    if (last_known > 0 && last_known <= target_delay_ms) best = w;
    if (last_known > target_delay_ms) break;
  }
  return best;
}

void Verus::epoch_update(util::Time) {
  if (d_min_ms_ >= 1e9 || d_est_ms_ <= 0) return;
  // Steer the delay target: back off multiplicatively when the network is
  // over the delay-ratio threshold, otherwise creep upward.
  if (in_recovery_) {
    d_target_ms_ = d_min_ms_ * kR / 2;
    in_recovery_ = false;
  } else if (d_est_ms_ / d_min_ms_ > kR) {
    d_target_ms_ = std::max(d_min_ms_, d_target_ms_ - kDelta2 * d_min_ms_ * 0.1);
  } else {
    d_target_ms_ = std::max(d_target_ms_, d_min_ms_) + kDelta1 * d_min_ms_ * 0.1;
  }
  const int w = window_for_delay(d_target_ms_);
  // Smooth window moves to avoid huge jumps from a sparse profile.
  cwnd_ = std::clamp(0.7 * cwnd_ + 0.3 * static_cast<double>(w), 2.0,
                     static_cast<double>(kMaxWindowSegments));
}

void Verus::on_loss(const net::LossSample& s) {
  in_recovery_ = true;
  cwnd_ = std::max(cwnd_ / 2, 2.0);
  if (s.bytes_in_flight == 0) cwnd_ = 2.0;
}

util::RateBps Verus::pacing_rate(util::Time) const {
  const double rtt_sec = std::max(util::to_seconds(srtt_), 1e-4);
  return 1.2 * cwnd_ * net::kDefaultMss * util::kBitsPerByte / rtt_sec;
}

double Verus::cwnd_bytes(util::Time) const { return cwnd_ * net::kDefaultMss; }

}  // namespace pbecc::baselines
