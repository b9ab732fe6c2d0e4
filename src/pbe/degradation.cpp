#include "pbe/degradation.h"

#include <algorithm>

namespace pbecc::pbe {

namespace {
// Divergence: phy > kDivergenceRatio x delay estimate, sustained for
// kDivergenceAfter, flags the PHY feed; agreement (phy back inside
// kAgreeRatio x delay) sustained for kAgreeHold clears it.
constexpr double kDivergenceRatio = 1.6;
constexpr double kAgreeRatio = 1.3;
constexpr util::Duration kDivergenceAfter = 300 * util::kMillisecond;
constexpr util::Duration kAgreeHold = 200 * util::kMillisecond;
// Multiplier on the raw confidence while diverged. 0.45 x a perfect 1.0
// lands below kDegradeBelow, so a confidently-wrong feed still degrades.
constexpr double kDivergencePenalty = 0.45;
}  // namespace

void DegradationMachine::on_feedback(util::Time now, double confidence) {
  conf_ = std::clamp(confidence, 0.0, 1.0);
  last_feedback_ = now;
  advance(now);
}

double DegradationMachine::effective_confidence() const {
  const double penalty =
      diverged_ ? kDivergencePenalty : 1.0;
  return std::clamp(conf_ * penalty, 0.0, 1.0);
}

void DegradationMachine::on_estimates(util::Time now, double phy_bps,
                                      double delay_bps, double acked_bps,
                                      double memory_bps, bool overusing) {
  if (!blend_ || last_feedback_ < 0) return;
  last_phy_bps_ = phy_bps;
  last_memory_bps_ = memory_bps;
  if (delay_bps > 0 && phy_bps > 0) {
    // Overclaiming (false DCIs, stale cell state) needs congestion
    // corroboration: pacing at an honest PHY rate builds no queue, so a
    // lying feed cannot avoid tripping `overusing` for long. Underclaiming
    // is judged against capacity memory, not acked bitrate: pacing follows
    // the claim, so acked collapses to match any underreport within one
    // window and delivery evidence alone can never refute it. Note the
    // clean-run invariant that keeps both branches quiet: delay_bps <=
    // kAimdMaxVsAcked x acked and acked tracks the PHY pace, so with
    // kDivergenceRatio > kAimdMaxVsAcked an honest feed cannot trip the
    // overclaim branch, and honest cell-share variation stays well inside
    // kMemoryRatio.
    const bool overclaim =
        overusing && phy_bps > kDivergenceRatio * delay_bps;
    const bool underclaim =
        memory_bps > 0 && memory_bps > kMemoryRatio * phy_bps;
    const bool agree = phy_bps <= kAgreeRatio * delay_bps &&
                       (acked_bps <= 0 ||
                        acked_bps <= kAgreeRatio * phy_bps);
    if (overclaim || underclaim) {
      if (diverge_since_ < 0) diverge_since_ = now;
      agree_since_ = -1;
      if (!diverged_ &&
          now - diverge_since_ >= kDivergenceAfter) {
        diverged_ = true;
        if (cross_check_hook_) cross_check_hook_(now, phy_bps, delay_bps, true);
      }
    } else {
      diverge_since_ = -1;
      if (agree) {
        if (agree_since_ < 0) agree_since_ = now;
        if (diverged_ && now - agree_since_ >= kAgreeHold) {
          diverged_ = false;
          if (cross_check_hook_) {
            cross_check_hook_(now, phy_bps, delay_bps, false);
          }
        }
      } else {
        agree_since_ = -1;
      }
    }
  }
  update_weight(now);
  advance(now);
}

void DegradationMachine::update_weight(util::Time now) {
  const bool stale = now - last_feedback_ > kFeedbackTimeout;
  const double conf = stale ? 0.0 : effective_confidence();
  const double lo = kBlendZeroTrustBelow;
  const double hi = kBlendFullTrustAbove;
  const double target =
      std::clamp((conf - lo) / std::max(hi - lo, 1e-9), 0.0, 1.0);
  // Deadband + hold: at most one committed move per hold window, and no
  // move at all for noise smaller than the deadband. (The hold is safe in
  // the downward direction too because the pacing blend separately floors
  // itself at the delay target whenever memory contradicts the claim — a
  // stuck-high weight on a floor report cannot throttle the flow.)
  if (std::abs(target - blend_weight_) <= kBlendDeadband) return;
  if (last_weight_commit_ >= 0 &&
      now - last_weight_commit_ < kBlendHold) {
    return;
  }
  // Up-moves pay one extra gate: no commit while capacity memory
  // contradicts the claim. A feed that recovers decode health while still
  // reporting a floor/stale rate must not reclaim weight 1 for the
  // divergence detector's full trip time.
  if (target > blend_weight_ && last_memory_bps_ > 0 && last_phy_bps_ > 0 &&
      last_memory_bps_ > kMemoryRatio * last_phy_bps_) {
    return;
  }
  blend_weight_ = target;
  last_weight_commit_ = now;
}

void DegradationMachine::advance(util::Time now) {
  if (last_feedback_ < 0) return;  // not engaged until first valid feedback

  const double conf = effective_confidence();
  const bool stale = now - last_feedback_ > kFeedbackTimeout;
  const bool healthy = !stale && conf >= kRecoverAbove;
  const bool unhealthy = stale || conf < kDegradeBelow;
  if (blend_) update_weight(now);

  if (healthy) {
    if (healthy_since_ < 0) healthy_since_ = now;
  } else {
    healthy_since_ = -1;
  }
  if (unhealthy) {
    if (unhealthy_since_ < 0) unhealthy_since_ = now;
  } else {
    unhealthy_since_ = -1;
  }

  switch (state_) {
    case DegradationState::kPrecise:
      if (unhealthy) transition(now, DegradationState::kDegraded);
      break;
    case DegradationState::kDegraded:
      if (unhealthy && now - unhealthy_since_ >= kFallbackAfter) {
        transition(now, DegradationState::kFallback);
      } else if (healthy && now - healthy_since_ >= kRecoverHold) {
        transition(now, DegradationState::kPrecise);
      }
      break;
    case DegradationState::kFallback:
      if (healthy && now - healthy_since_ >= kRecoverHold) {
        transition(now, DegradationState::kPrecise);
      }
      break;
  }
}

void DegradationMachine::transition(util::Time now, DegradationState to) {
  const DegradationState from = state_;
  state_ = to;
  if (hook_) hook_(now, from, to);
}

}  // namespace pbecc::pbe
