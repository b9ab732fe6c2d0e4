// Delay-gradient trendline filter with adaptive overuse detection, in the
// style of goog_cc (WebRTC's send-side delay-based BWE; see SNIPPETS.md and
// ROADMAP item 4). This is the endpoint-only half of the hybrid estimator:
// it needs nothing but per-ACK one-way-delay samples, so it keeps producing
// a congestion verdict when the physical-layer feed is blind.
//
// Pipeline per sample:
//   1. EWMA-smooth the one-way delay (jitter suppression),
//   2. least-squares slope of smoothed delay vs arrival time over a small
//      sliding window (the "trendline": ms of queue growth per ms),
//   3. compare the count-scaled slope against an *adaptive* threshold
//      (gamma adapts toward |trend| with asymmetric gains, so a noisy link
//      widens its own deadband) and require the excursion to be sustained
//      before declaring overuse.
//
// Float-drift discipline (the PR-4 WindowedMean lesson, DESIGN.md §10): the
// slope is recomputed exactly over the window's points on every update —
// never maintained incrementally — so there is no subtract-rounding residue
// to accumulate over multi-hour soaks. The window is O(20) points, so the
// exact pass is noise. The 10M-update regression test in bwe_test holds the
// slope within 1e-9 of a brute-force mirror.
#pragma once

#include <cstddef>
#include <deque>

#include "util/time.h"

namespace pbecc::bwe {

// The congestion verdict the detector hands the rate controller.
enum class BandwidthUsage : std::uint8_t {
  kNormal = 0,
  kOverusing = 1,
  kUnderusing = 2,
};

// Sliding window of (arrival time, smoothed delay) points the slope is
// fit over. Small keeps the fit responsive and the exact recompute cheap.
inline constexpr std::size_t kTrendlineWindow = 20;

class TrendlineEstimator {
 public:
  TrendlineEstimator();

  // One ACK's sample: `arrival` is the ACK receipt time on the sender's
  // clock, `one_way_delay_ms` the data packet's measured one-way delay.
  void update(util::Time arrival, double one_way_delay_ms);

  // Drop all window state (exact reset: every accumulator returns to its
  // construction value, no residue). Call after a long feed gap.
  void reset();

  // Raw fitted slope: ms of delay growth per ms of arrival time.
  double slope() const { return slope_; }
  // Count-scaled, gain-multiplied trend the threshold compares against.
  double threshold_ms() const { return threshold_; }
  BandwidthUsage state() const { return state_; }
  std::size_t num_points() const { return points_.size(); }

 private:
  struct Point {
    double t_ms;  // arrival relative to the window epoch
    double d_ms;  // smoothed delay
  };

  void detect(util::Time arrival);
  void adapt_threshold(util::Time arrival);

  std::deque<Point> points_;
  util::Time epoch_ = -1;  // window epoch: first arrival after a reset
  bool have_sample_ = false;
  double smoothed_ms_ = 0.0;
  double slope_ = 0.0;
  double modified_trend_ = 0.0;
  double threshold_;
  util::Time last_update_ = -1;
  // Sustained-overuse bookkeeping.
  util::Time over_since_ = -1;
  int over_count_ = 0;
  double prev_slope_ = 0.0;
  BandwidthUsage state_ = BandwidthUsage::kNormal;
};

}  // namespace pbecc::bwe
