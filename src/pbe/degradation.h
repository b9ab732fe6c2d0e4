// Graceful degradation of the PBE feedback loop (ROADMAP: "degraded, not
// dead" when the physical-layer feed breaks).
//
// PBE-CC paces at exactly the capacity the client reports — which is only
// safe while that report is trustworthy. This three-state machine tracks a
// per-feedback confidence score (monitor decode-success rate x estimator
// freshness x server-side plausibility) and the age of the last valid
// feedback word:
//
//   PRECISE   — feed healthy: pace at the reported capacity (paper §4/§5).
//   DEGRADED  — feed suspect: hold the last good estimate and decay it
//               exponentially (half-life kHoldHalfLife) so a stale rate
//               can never overdrive a collapsing link for long.
//   FALLBACK  — feed dead: run a plain BBR; physical-layer feedback is
//               ignored until it proves healthy again.
//
// Hysteresis on both transitions: the confidence band between
// kDegradeBelow and kRecoverAbove holds the current state, escalation to
// FALLBACK requires continuous ill health for kFallbackAfter, and any
// recovery to PRECISE requires continuous good health for kRecoverHold.
// The machine is inert until the first valid feedback arrives, so a
// connection's first RTT never starts degraded. See DESIGN.md §8.
#pragma once

#include <cstdint>
#include <functional>

#include "util/time.h"

namespace pbecc::pbe {

enum class DegradationState : std::uint8_t {
  kPrecise = 0,
  kDegraded = 1,
  kFallback = 2,
};

// Confidence below this is unhealthy; above kRecoverAbove is healthy;
// the band in between holds the current state (dual-threshold
// hysteresis). The thresholds bracket the confidence a half-degraded
// decode window produces, so brief single-subframe hiccups (confidence
// ~0.95) never leave PRECISE.
inline constexpr double kDegradeBelow = 0.55;
inline constexpr double kRecoverAbove = 0.75;
// Feedback older than this is unhealthy regardless of its confidence
// (watchdog for total feedback loss). ~2x the largest location RTT.
inline constexpr util::Duration kFeedbackTimeout = 200 * util::kMillisecond;
// Continuous ill health in DEGRADED before escalating to FALLBACK.
inline constexpr util::Duration kFallbackAfter = 250 * util::kMillisecond;
// Continuous good health before any recovery to PRECISE. Together with
// the ~150 ms the 200 ms decode window needs to clear kRecoverAbove,
// recovery lands ~300 ms after the feed returns — inside the 500 ms
// budget, but immune to one lucky subframe.
inline constexpr util::Duration kRecoverHold = 100 * util::kMillisecond;
// DEGRADED hold-and-decay half-life for the held pacing rate.
inline constexpr util::Duration kHoldHalfLife = 500 * util::kMillisecond;

// Confidence-weighted blending of the PHY capacity estimate with the
// delay-gradient sidecar (DESIGN.md §13). Off by default: the discrete
// PRECISE/DEGRADED/FALLBACK behaviour is exactly what it was before the
// hybrid existed. When enabled, the machine additionally maintains
//
//   * a blend weight w in [0,1] — the share of pacing authority the PHY
//     estimate holds. w maps from *effective* confidence: 1 at or above
//     kBlendFullTrustAbove (clean runs are bit-identical to pure PBE), 0
//     at or below kBlendZeroTrustBelow, linear between. The committed
//     weight moves only when the target has left a deadband around it AND
//     a hold has elapsed since the last commit, so bounded confidence
//     noise can flip it at most once per hold window;
//   * a divergence verdict — PHY sustainedly claiming more than the
//     delay-gradient estimate confirms (the dangerous direction: false
//     DCIs and stale cell state inflate capacity; underclaiming is merely
//     conservative) multiplies the confidence fed to both the state
//     machine and the weight by a penalty until the two estimates agree
//     again (degradation.cpp holds the divergence constants).
//
// Effective-confidence endpoints of the weight ramp. kBlendFullTrustAbove
// sits above kRecoverAbove so a link healthy enough to be PRECISE but
// jittery still cedes a little authority to the delay estimate.
inline constexpr double kBlendZeroTrustBelow = 0.35;
inline constexpr double kBlendFullTrustAbove = 0.80;
// Committed-weight hysteresis: move only if |target - committed| exceeds
// the deadband and kBlendHold has passed since the previous move.
inline constexpr double kBlendDeadband = 0.10;
inline constexpr util::Duration kBlendHold = 200 * util::kMillisecond;
// Underclaim: server-side capacity memory (recent BtlBw / achieved-rate
// maximum) exceeding kMemoryRatio x the claim flags the feed from the
// other side. Memory, not instantaneous acked bitrate, because pacing
// follows the claim: within one window acked collapses to match any
// underreport, and the lie becomes self-consistent. 2.0 = "the path
// delivered twice your claim seconds ago" — far outside honest
// cell-share variation, so clean runs never trip it.
inline constexpr double kMemoryRatio = 2.0;

class DegradationMachine {
 public:
  // (now, from, to) — fired on every state change, after state_ updates.
  using TransitionHook =
      std::function<void(util::Time, DegradationState, DegradationState)>;
  // (now, phy_bps, delay_bps, diverged) — fired each time the divergence
  // verdict flips (both directions), after diverged_ updates. The sender
  // turns this into the kEstimatorCrossCheck obs event.
  using CrossCheckHook =
      std::function<void(util::Time, double, double, bool)>;

  // `blend` turns on the hybrid's confidence-weighted blending.
  explicit DegradationMachine(bool blend = false) : blend_(blend) {}

  void set_transition_hook(TransitionHook hook) { hook_ = std::move(hook); }
  void set_cross_check_hook(CrossCheckHook hook) {
    cross_check_hook_ = std::move(hook);
  }

  // A valid (plausible) feedback word arrived carrying this confidence.
  void on_feedback(util::Time now, double confidence);

  // Hybrid only: both estimators' current opinions, once per ACK.
  // `phy_bps` is the PHY capacity claim, `delay_bps` the delay-gradient
  // target, `acked_bps` the measured acked bitrate (0 when unknown),
  // `memory_bps` the server-side capacity memory (recent BtlBw /
  // achieved-rate maximum, 0 when unknown), and `overusing` the
  // trendline's current verdict. Two divergence modes:
  //
  //   overclaim  — phy > kDivergenceRatio x delay WHILE overusing. The
  //                congestion evidence is required because a low delay
  //                target with no delay growth merely means the sidecar
  //                has not had to probe that high (it is not driving
  //                pacing) — not that the PHY feed lies.
  //   underclaim — memory > kMemoryRatio x phy. The path having recently
  //                delivered far more than the claim refutes it; memory
  //                is used instead of acked because pacing-at-the-claim
  //                drags acked down to the claim within one window.
  //
  // Either, sustained for kDivergenceAfter, flags the feed. Runs the
  // divergence detector and the blend-weight commit. No-op unless
  // blending — legacy callers never reach this, so discrete-machine
  // behaviour is untouched.
  void on_estimates(util::Time now, double phy_bps, double delay_bps,
                    double acked_bps, double memory_bps, bool overusing);

  // Advance the clock (call from every ack and packet send); drives the
  // watchdog when feedback stops arriving entirely.
  void advance(util::Time now);

  DegradationState state() const { return state_; }
  // False until the first valid feedback: the machine never degrades a
  // connection that has not yet heard from its client.
  bool engaged() const { return last_feedback_ >= 0; }
  double confidence() const { return conf_; }
  // Raw confidence x divergence penalty — what the state machine and the
  // blend weight actually consume.
  double effective_confidence() const;
  // Committed share of pacing authority held by the PHY estimate. 1.0
  // whenever blending is disabled.
  double phy_weight() const { return blend_weight_; }
  bool diverged() const { return diverged_; }
  bool blending() const { return blend_; }

 private:
  void transition(util::Time now, DegradationState to);
  void update_weight(util::Time now);

  bool blend_;
  TransitionHook hook_;
  CrossCheckHook cross_check_hook_;
  DegradationState state_ = DegradationState::kPrecise;
  double conf_ = 1.0;
  util::Time last_feedback_ = -1;
  util::Time healthy_since_ = -1;
  util::Time unhealthy_since_ = -1;
  // Blend state (inert unless blend_).
  double blend_weight_ = 1.0;
  util::Time last_weight_commit_ = -1;
  bool diverged_ = false;
  util::Time diverge_since_ = -1;
  util::Time agree_since_ = -1;
  // Latest estimator snapshot (for the up-move agreement gate).
  double last_phy_bps_ = 0.0;
  double last_memory_bps_ = 0.0;
};

}  // namespace pbecc::pbe
