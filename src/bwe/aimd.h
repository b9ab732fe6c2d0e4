// AIMD rate control for the delay-gradient estimator, after goog_cc's
// AimdRateControl + LinkCapacityTracker (SNIPPETS.md snippet 2;
// /root/related naivertc idiom). The trendline's verdict drives a
// three-state controller:
//
//   kOverusing  -> Decrease: cut to beta x the acked bitrate and teach the
//                  capacity tracker what the link just demonstrated;
//   kUnderusing -> Hold: the queue built by an overshoot is draining —
//                  touching the rate now would misread the transient;
//   kNormal     -> Increase: multiplicative (8%/s) while far from the
//                  tracked link capacity, additive (~one MSS per RTT) once
//                  inside its confidence band.
//
// The LinkCapacityTracker keeps an EWMA of capacity-revealing samples
// (acked bitrate at each overuse-triggered decrease) plus a variance
// estimate; "near capacity" means within 3 standard deviations, which is
// what flips increase from multiplicative to additive. Estimates far
// outside the band reset the tracker — the link genuinely changed.
#pragma once

#include <optional>

#include "util/rate.h"
#include "util/time.h"

#include "bwe/trendline.h"

namespace pbecc::bwe {

class LinkCapacityTracker {
 public:
  // A capacity-revealing sample: the acked bitrate at the moment overuse
  // forced a decrease (the link was saturated, so this *is* capacity).
  void on_overuse(double acked_bps);
  // A delay-based estimate far outside the band invalidates the tracked
  // capacity (handover, carrier change): start over.
  void maybe_reset(double estimate_bps);

  bool has_estimate() const { return estimate_bps_.has_value(); }
  double estimate_bps() const { return estimate_bps_.value_or(0.0); }
  // Standard deviation of the tracked capacity, in bps.
  double stddev_bps() const;

 private:
  std::optional<double> estimate_bps_;
  // Variance is tracked normalized by the estimate (goog_cc idiom) so a
  // 100 Mbit/s link and a 1 Mbit/s link use comparable bands.
  double var_norm_ = 0.4;
};

inline constexpr double kAimdBeta = 0.9;  // multiplicative decrease factor
// Range of the target rate.
inline constexpr util::RateBps kAimdMinRate = 1e5;
inline constexpr util::RateBps kAimdMaxRate = 2.5e9;
// Minimum spacing between multiplicative decreases. A sustained overuse
// verdict arrives on every ACK; cutting on each one compounds through
// the acked bitrate (pace lower -> deliver lower -> cut lower) and
// spirals to the floor. One cut, then let the queue drain and the acked
// estimate settle before judging again. The effective interval is the
// smoothed RTT clamped to [kAimdMinDecreaseInterval, kMaxDecreaseInterval].
inline constexpr util::Duration kAimdMinDecreaseInterval =
    150 * util::kMillisecond;
// For this long after the first update the target will not drop below
// the initial rate, and overuse cuts do not teach the capacity tracker.
// The first verdicts of a flow fire on the startup-burst delay
// transient with an acked basis that reflects the pacing ramp, not the
// link; cutting on them digs a hole that takes seconds to climb out of
// (and seeds the tracker with a bogus "capacity").
inline constexpr util::Duration kAimdStartupGrace = util::kSecond;

// Increase is clamped to this multiple of the acked bitrate, so the
// target cannot run away from what the path demonstrably delivers.
inline constexpr double kAimdMaxVsAcked = 1.25;

class AimdRateControl {
 public:
  explicit AimdRateControl(util::RateBps initial_rate);

  // One verdict from the trendline; `acked_bps` is the current acked
  // bitrate (0 when unknown), `rtt` the smoothed RTT.
  util::RateBps update(util::Time now, BandwidthUsage usage, double acked_bps,
                       util::Duration rtt);

  // Raise the target to at least `bps` (clamped to the configured range).
  // Used by the hybrid sender to jump-start the sidecar from server-side
  // capacity memory when the PHY feed collapses — the next overuse verdict
  // cuts it right back if the memory is stale.
  void seed(util::RateBps bps);

  // Out-of-band multiplicative decrease, driven by evidence the trendline
  // cannot see (DelayBasedBwe's standing-queue *level* detector: a queue
  // that has stopped growing has zero delay gradient, so kOverusing never
  // fires no matter how deep it stands). Cuts to beta x the acked bitrate,
  // teaches the capacity tracker (the link is saturated — that *is*
  // capacity), and parks in Hold so the drain is not misread as underuse
  // headroom. Respects kAimdMinDecreaseInterval so a level cut cannot
  // compound with a fresh trendline cut.
  void force_decrease(util::Time now, double acked_bps);

  util::RateBps target_bps() const { return target_; }
  const LinkCapacityTracker& link_capacity() const { return capacity_; }
  // Time of the most recent overuse cut (-1 if none yet). The hybrid
  // sender treats a fresh cut as congestion evidence that quarantines
  // claim re-seeding.
  util::Time last_decrease() const { return last_decrease_; }
  // Exposed for tests: true while the controller is in its post-overuse
  // hold (underuse / queue draining).
  bool holding() const { return state_ == State::kHold; }

 private:
  enum class State { kHold, kIncrease, kDecrease };

  void change_state(BandwidthUsage usage);

  LinkCapacityTracker capacity_;
  util::RateBps target_;
  util::RateBps initial_target_;
  State state_ = State::kHold;
  util::Time first_update_ = -1;
  util::Time last_update_ = -1;
  util::Time last_decrease_ = -1;
  // True between seed() and the first piece of evidence (an overuse cut,
  // or the acked bitrate catching up): the kAimdMaxVsAcked clamp is
  // suspended, otherwise it would snap the seeded target straight back to
  // the pre-seed acked level and the jump-start would be a no-op.
  bool seeded_ = false;
};

}  // namespace pbecc::bwe
