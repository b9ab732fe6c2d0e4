#include "bwe/aimd.h"

#include <algorithm>
#include <cmath>

#include "net/packet.h"

namespace pbecc::bwe {

namespace {
// EWMA retention for the capacity tracker (goog_cc uses ~0.05 sample
// weight on both mean and deviation).
constexpr double kSampleWeight = 0.05;
// Samples this many normalized deviations outside the band reset the
// tracker instead of updating it.
constexpr double kResetDeviations = 3.0;
// Multiplicative increase while far from the tracked capacity. Stock
// goog_cc uses 1.08/s — tuned for video sources that also send probe
// bursts. This estimator has no prober and must re-find cellular
// capacity on its own after an outage, so it climbs much faster and
// relies on the trendline cut (plus the kAimdMaxVsAcked clamp) to rein in
// the overshoot.
constexpr double kIncreasePerSecond = 2.0;
// Upper clamp on the decrease spacing. The RTT fed in includes the queue
// the overshoot itself built, so after a sharp capacity drop it can
// inflate faster than wall-clock time passes — an uncapped spacing then
// recedes forever and the controller never cuts again while the queue
// grows without bound (cut-starvation spiral; see bwe_test's
// capacity-drop convergence test).
constexpr util::Duration kMaxDecreaseInterval = 500 * util::kMillisecond;
// Growth rate during kAimdStartupGrace. The steady-state rate is tuned for
// re-finding capacity after an outage, but a fresh flow knows nothing —
// like BBR's startup it should discover the link in RTTs, not seconds.
// The kAimdMaxVsAcked clamp stays active, so the effective climb is a
// ladder bounded by demonstrated delivery, not open-loop growth.
constexpr double kStartupIncreasePerSecond = 6.0;
}  // namespace

void LinkCapacityTracker::on_overuse(double acked_bps) {
  if (acked_bps <= 0) return;
  if (!estimate_bps_.has_value()) {
    estimate_bps_ = acked_bps;
    return;
  }
  const double est = *estimate_bps_;
  const double err = acked_bps - est;
  estimate_bps_ = est + kSampleWeight * err;
  // Normalized variance so the band scales with the link. goog_cc's
  // clamp constants ([0.4, 2.5e3]) are calibrated for kbps, so normalize
  // in that domain — in raw bps the band collapses to a few hundred bps
  // and "near capacity" would never trigger.
  const double norm_kbps = std::max(est, 1.0) / 1e3;
  var_norm_ = (1.0 - kSampleWeight) * var_norm_ +
              kSampleWeight * (err / 1e3) * (err / 1e3) / norm_kbps;
  var_norm_ = std::clamp(var_norm_, 0.4, 2.5e3);
}

void LinkCapacityTracker::maybe_reset(double estimate_bps) {
  if (!estimate_bps_.has_value()) return;
  if (std::abs(estimate_bps - *estimate_bps_) >
      kResetDeviations * stddev_bps()) {
    estimate_bps_.reset();
    var_norm_ = 0.4;
  }
}

double LinkCapacityTracker::stddev_bps() const {
  if (!estimate_bps_.has_value()) return 0.0;
  return 1e3 * std::sqrt(var_norm_ * std::max(*estimate_bps_, 1.0) / 1e3);
}

AimdRateControl::AimdRateControl(util::RateBps initial_rate)
    : target_(std::clamp(initial_rate, kAimdMinRate, kAimdMaxRate)),
      initial_target_(target_) {}

void AimdRateControl::seed(util::RateBps bps) {
  const util::RateBps seeded =
      std::clamp(std::max(target_, bps), kAimdMinRate, kAimdMaxRate);
  if (seeded > target_) {
    target_ = seeded;
    seeded_ = true;
  }
}

void AimdRateControl::force_decrease(util::Time now, double acked_bps) {
  if (last_decrease_ >= 0 && now - last_decrease_ < kAimdMinDecreaseInterval) {
    return;  // a recent cut is already draining this queue
  }
  if (first_update_ < 0) first_update_ = now;
  const bool in_startup_grace = now - first_update_ < kAimdStartupGrace;
  const double basis = acked_bps > 0 ? acked_bps : target_;
  // The level detector fires only when the path has been saturated long
  // enough to stand a queue, so the acked bitrate is as capacity-revealing
  // here as at a trendline-driven cut.
  if (!in_startup_grace) capacity_.on_overuse(basis);
  target_ = std::min<util::RateBps>(target_, kAimdBeta * basis);
  if (in_startup_grace) target_ = std::max(target_, initial_target_);
  target_ = std::clamp(target_, kAimdMinRate, kAimdMaxRate);
  last_decrease_ = now;
  seeded_ = false;
  state_ = State::kHold;
}

void AimdRateControl::change_state(BandwidthUsage usage) {
  // goog_cc's RateControlState transitions: overuse always decreases,
  // underuse always holds (the queue is draining — wait), normal leaves
  // hold for increase (and a completed decrease re-arms via hold).
  switch (usage) {
    case BandwidthUsage::kOverusing:
      state_ = State::kDecrease;
      break;
    case BandwidthUsage::kUnderusing:
      state_ = State::kHold;
      break;
    case BandwidthUsage::kNormal:
      if (state_ == State::kHold || state_ == State::kDecrease) {
        state_ = State::kIncrease;
      }
      break;
  }
}

util::RateBps AimdRateControl::update(util::Time now, BandwidthUsage usage,
                                      double acked_bps, util::Duration rtt) {
  change_state(usage);
  if (first_update_ < 0) first_update_ = now;
  const bool in_startup_grace = now - first_update_ < kAimdStartupGrace;
  const double dt_s =
      last_update_ >= 0
          ? std::min(util::to_seconds(now - last_update_), 1.0)
          : 0.0;
  last_update_ = now;

  switch (state_) {
    case State::kHold:
      break;
    case State::kDecrease: {
      const util::Duration spacing = std::clamp(
          rtt, kAimdMinDecreaseInterval, kMaxDecreaseInterval);
      if (last_decrease_ >= 0 && now - last_decrease_ < spacing) {
        state_ = State::kHold;
        break;
      }
      // Cut below what the path just delivered; that acked bitrate is a
      // capacity-revealing sample for the tracker.
      const double basis = acked_bps > 0 ? acked_bps : target_;
      if (!in_startup_grace) capacity_.on_overuse(basis);
      target_ = std::min<util::RateBps>(target_, kAimdBeta * basis);
      last_decrease_ = now;
      seeded_ = false;  // the cut is fresh evidence; the seed is spent
      // One cut per verdict: go to hold until the trendline reports
      // normal again (change_state re-arms increase from there).
      state_ = State::kHold;
      break;
    }
    case State::kIncrease: {
      // No growth without delivery evidence. When the ACK stream is too
      // sparse for an acked-bitrate estimate the kAimdMaxVsAcked clamp below
      // is inert and the trendline window never fills — multiplicative
      // growth would then run away with nothing able to stop it (the
      // feedback-loss chaos profile turns exactly this into a standing
      // queue).
      if (acked_bps <= 0) break;
      const bool near_capacity =
          capacity_.has_estimate() &&
          std::abs(target_ - capacity_.estimate_bps()) <
              kResetDeviations * capacity_.stddev_bps();
      if (near_capacity) {
        // Additive: about one MSS per RTT (scaled to this update's dt).
        const double rtt_s = std::max(util::to_seconds(rtt), 1e-3);
        const double additive_bps_per_s =
            static_cast<double>(net::kDefaultMss) * util::kBitsPerByte / rtt_s;
        target_ += additive_bps_per_s * dt_s;
      } else {
        const double rate = in_startup_grace ? kStartupIncreasePerSecond
                                             : kIncreasePerSecond;
        target_ *= std::pow(rate, dt_s);
      }
      capacity_.maybe_reset(target_);
      break;
    }
  }

  if (seeded_ && acked_bps > 0 &&
      kAimdMaxVsAcked * acked_bps >= target_) {
    seeded_ = false;  // delivery caught up with the seed; clamp re-arms
  }
  if (acked_bps > 0 && state_ == State::kIncrease && !seeded_) {
    // Growth, not cuts, is what the clamp disciplines: the target may not
    // run more than kAimdMaxVsAcked ahead of what the path demonstrably
    // delivers. Applying it outside kIncrease would let a transient dip in
    // the acked estimate drag an already-committed target down.
    target_ = std::min<util::RateBps>(target_, kAimdMaxVsAcked * acked_bps);
  }
  if (in_startup_grace) {
    target_ = std::max(target_, initial_target_);
  }
  target_ = std::clamp(target_, kAimdMinRate, kAimdMaxRate);
  return target_;
}

}  // namespace pbecc::bwe
