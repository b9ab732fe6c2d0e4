#include "bwe/trendline.h"

#include <algorithm>
#include <cmath>

namespace pbecc::bwe {

namespace {
// EWMA retention on the delay samples (goog_cc's smoothing_coef).
constexpr double kSmoothing = 0.9;
// The fitted slope is scaled by min(#points, 60) x this gain before the
// threshold comparison (goog_cc's threshold_gain).
constexpr double kGain = 4.0;
// Adaptive threshold gamma: moves toward |trend| with kUp when below it
// and kDown when above (down faster than up, per Holmer et al.), within
// [kMinThresholdMs, kMaxThresholdMs]. Units: milliseconds.
constexpr double kInitialThresholdMs = 12.5;
constexpr double kMinThresholdMs = 6.0;
constexpr double kMaxThresholdMs = 600.0;
constexpr double kUp = 0.0087;
constexpr double kDown = 0.039;
// An excursion beyond gamma must persist this long (and over >= 2
// samples, with a non-decreasing slope) before kOverusing is declared.
constexpr util::Duration kOveruseTime = 10 * util::kMillisecond;
}  // namespace

TrendlineEstimator::TrendlineEstimator() : threshold_(kInitialThresholdMs) {}

void TrendlineEstimator::reset() {
  points_.clear();
  epoch_ = -1;
  have_sample_ = false;
  smoothed_ms_ = 0.0;
  slope_ = 0.0;
  modified_trend_ = 0.0;
  over_since_ = -1;
  over_count_ = 0;
  prev_slope_ = 0.0;
  state_ = BandwidthUsage::kNormal;
  // The threshold is *not* reset: it encodes what the link's noise floor
  // looked like, which survives a feed gap.
}

void TrendlineEstimator::update(util::Time arrival, double one_way_delay_ms) {
  if (epoch_ < 0) epoch_ = arrival;
  if (!have_sample_) {
    have_sample_ = true;
    smoothed_ms_ = one_way_delay_ms;
  } else {
    smoothed_ms_ = kSmoothing * smoothed_ms_ +
                   (1.0 - kSmoothing) * one_way_delay_ms;
  }

  points_.push_back(
      {static_cast<double>(arrival - epoch_) / 1000.0, smoothed_ms_});
  if (points_.size() > kTrendlineWindow) {
    points_.pop_front();
    // Re-anchor the epoch at the window head so t_ms stays small over
    // unbounded runs (a multi-hour soak would otherwise push t into the
    // 1e9 range and shred the fit's precision). The subtraction is applied
    // to every stored point, so the fit is unchanged.
    const double t0 = points_.front().t_ms;
    if (t0 > 0) {
      epoch_ += static_cast<util::Time>(t0 * 1000.0);
      for (Point& p : points_) p.t_ms -= t0;
    }
  }

  // Exact least-squares fit over the window: recomputed from the stored
  // points on every update, never maintained incrementally (see header).
  if (points_.size() >= 2) {
    const double n = static_cast<double>(points_.size());
    double sum_t = 0.0, sum_d = 0.0;
    for (const Point& p : points_) {
      sum_t += p.t_ms;
      sum_d += p.d_ms;
    }
    const double mean_t = sum_t / n;
    const double mean_d = sum_d / n;
    double cov = 0.0, var = 0.0;
    for (const Point& p : points_) {
      cov += (p.t_ms - mean_t) * (p.d_ms - mean_d);
      var += (p.t_ms - mean_t) * (p.t_ms - mean_t);
    }
    slope_ = var > 0.0 ? cov / var : 0.0;
  } else {
    slope_ = 0.0;
  }

  detect(arrival);
  last_update_ = arrival;
}

void TrendlineEstimator::detect(util::Time arrival) {
  const double count_scale =
      std::min<double>(static_cast<double>(points_.size()), 60.0);
  modified_trend_ = slope_ * count_scale * kGain;

  if (points_.size() < kTrendlineWindow) {
    // Window still filling (startup or post-reset): the fit is too noisy
    // to act on either way.
    state_ = BandwidthUsage::kNormal;
    over_since_ = -1;
    over_count_ = 0;
    adapt_threshold(arrival);
    return;
  }

  if (modified_trend_ > threshold_) {
    if (over_since_ < 0) {
      over_since_ = arrival;
      over_count_ = 0;
    }
    ++over_count_;
    // Sustained, repeated, and not already easing off: overuse.
    if (arrival - over_since_ >= kOveruseTime && over_count_ > 1 &&
        slope_ >= prev_slope_) {
      state_ = BandwidthUsage::kOverusing;
    }
  } else if (modified_trend_ < -threshold_) {
    over_since_ = -1;
    over_count_ = 0;
    state_ = BandwidthUsage::kUnderusing;
  } else {
    over_since_ = -1;
    over_count_ = 0;
    state_ = BandwidthUsage::kNormal;
  }
  prev_slope_ = slope_;
  adapt_threshold(arrival);
}

void TrendlineEstimator::adapt_threshold(util::Time arrival) {
  const double abs_trend = std::abs(modified_trend_);
  // Ignore wild outliers (goog_cc: a spike >15 ms above gamma would drag
  // the threshold up and blind the detector to real congestion onset).
  if (abs_trend > threshold_ + 15.0) {
    last_update_ = arrival;
    return;
  }
  const double k = abs_trend < threshold_ ? kDown : kUp;
  const double dt_ms =
      last_update_ >= 0
          ? std::min(static_cast<double>(arrival - last_update_) / 1000.0,
                     100.0)
          : 0.0;
  threshold_ += k * (abs_trend - threshold_) * dt_ms;
  threshold_ =
      std::clamp(threshold_, kMinThresholdMs, kMaxThresholdMs);
}

}  // namespace pbecc::bwe
