// DelayBasedBwe: the complete endpoint-only delay-gradient bandwidth
// estimator (goog_cc lineage — trendline filter -> adaptive overuse
// detector -> AIMD rate control with a LinkCapacityTracker).
//
// Two roles in this repository (ROADMAP item 4 / DESIGN.md §13):
//   * standalone congestion controller (baselines::GoogCc, algo "gcc"),
//     the delay-based baseline the paper's family of competitors lacked;
//   * always-on sidecar inside the hybrid PBE sender: it consumes the
//     same AckSample stream the PHY feedback rides in on, so whenever the
//     physical-layer estimate goes blind or rogue there is a continuously
//     maintained, endpoint-only estimate to blend toward.
//
// Everything here is a pure function of the ACK stream — no RNG, no wall
// clock — so hybrid runs stay byte-identical across thread counts and
// record→replay (the determinism suite gates this).
#pragma once

#include "net/congestion_controller.h"
#include "util/windowed_filter.h"

#include "bwe/aimd.h"
#include "bwe/trendline.h"

namespace pbecc::bwe {

// Standing-queue *level* detector. The trendline reacts to the delay
// gradient, so an overshoot small enough to sit under the adaptive
// threshold (+7.5% of capacity fits the window slope to a modified trend
// of 0.075 x 20 x 4 = 6.0 — exactly the threshold floor) builds queue the
// detector never convicts; and once delivery becomes ACK-clocked the
// queue stops growing, the gradient goes to zero, and the backlog stands
// forever. The level detector compares an EWMA-smoothed one-way delay
// against a long-window minimum (the RTprop idiom): excess above
// kLevelThresholdMs sustained for kLevelSustain forces one AIMD decrease,
// and growth stays capped at the acked bitrate until the excess falls
// below kLevelClearMs (hysteresis). While the excess stays high, one cut
// per sustain period — the drain needs time to show up in the delay
// signal.
class DelayBasedBwe {
 public:
  DelayBasedBwe();

  // Feed every ACK (works for any flow; only now / one_way_delay /
  // delivery_rate / rtt are consumed).
  void on_ack(const net::AckSample& s);

  // Jump-start the target to at least `bps` (hybrid: server-side capacity
  // memory, applied when the PHY feed collapses). Evidence-safe — the next
  // overuse verdict cuts an overambitious seed right back.
  void seed_target(util::RateBps bps);

  // The delay-based target rate. Const and clock-free on purpose: the
  // value advances only with ACKs, so concurrent telemetry sampling reads
  // the same committed state the pacing path does.
  util::RateBps target_bps() const { return target_; }
  double acked_bps() const { return acked_bps_; }
  // True while the short acked window is full — the dense-ACK regime in
  // which delivery evidence is fresh enough to corroborate (or cut) an
  // ambitious seed within a window or two.
  bool acked_fresh() const { return ack_rate_.size() >= 8; }

  // Introspection for telemetry, the blend, and tests.
  const TrendlineEstimator& trendline() const { return trendline_; }
  const AimdRateControl& aimd() const { return aimd_; }
  BandwidthUsage usage() const { return trendline_.state(); }
  // Total AIMD cuts the standing-queue level detector has forced.
  std::uint64_t level_trips() const { return level_trips_; }

 private:
  TrendlineEstimator trendline_;
  AimdRateControl aimd_;
  util::WindowedMean ack_rate_;
  // Longer-window backup: still holds enough samples when ACK loss makes
  // the short window unfillable.
  util::WindowedMean ack_rate_long_;
  util::Time last_ack_ = -1;
  util::RateBps target_;
  double acked_bps_ = 0.0;
  // Standing-queue level detector (see the class comment).
  util::WindowedMin<double> base_owd_ms_;
  double owd_level_ms_ = -1.0;  // EWMA of the OWD; <0 = no sample yet
  util::Time level_high_since_ = -1;
  bool level_tripped_ = false;
  std::uint64_t level_trips_ = 0;
};

}  // namespace pbecc::bwe
