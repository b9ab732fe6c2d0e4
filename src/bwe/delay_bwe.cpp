#include "bwe/delay_bwe.h"

#include <algorithm>

namespace pbecc::bwe {

namespace {
constexpr util::RateBps kInitialRate = 2e6;
// Acked-bitrate estimate: mean of the flow driver's delivery-rate
// samples over this window (uses util::WindowedMean, which already
// carries the exact re-sum discipline from DESIGN.md §10).
constexpr util::Duration kAckRateWindow = 250 * util::kMillisecond;
// A silence longer than this resets the trendline window: delay samples
// from before a feed gap describe a queue that no longer exists.
constexpr util::Duration kSilenceReset = 500 * util::kMillisecond;
// Fallback window for the acked-bitrate estimate when ACK loss keeps
// the short window from filling (see on_ack).
constexpr util::Duration kAckRateLongWindow = util::kSecond;
// Growth headroom over the acked estimate while in that sparse-ACK
// regime. Much tighter than kAimdMaxVsAcked: an ACK-starved
// transport cannot turn pacing headroom into delivery, so anything
// beyond a small probing margin just stands as queue.
constexpr double kSparseHeadroom = 1.3;
// Standing-queue level detector (the DelayBasedBwe class comment has the
// rationale).
constexpr double kLevelThresholdMs = 30.0;
constexpr double kLevelClearMs = 15.0;
constexpr util::Duration kLevelSustain = 400 * util::kMillisecond;
constexpr util::Duration kLevelBaseWindow = 10 * util::kSecond;
// EWMA retention on the level signal (jitter must not trip it).
constexpr double kLevelSmoothing = 0.9;
}  // namespace

DelayBasedBwe::DelayBasedBwe()
    : aimd_(kInitialRate),
      ack_rate_(kAckRateWindow),
      ack_rate_long_(kAckRateLongWindow),
      target_(std::clamp(kInitialRate, kAimdMinRate, kAimdMaxRate)),
      base_owd_ms_(kLevelBaseWindow) {}

void DelayBasedBwe::on_ack(const net::AckSample& s) {
  if (last_ack_ >= 0 && s.now - last_ack_ > kSilenceReset) {
    // The queue the old window described drained (or the path changed)
    // during the gap; stale slope points would fake an under/overuse.
    trendline_.reset();
    // Same for the level detector: the base OWD and the standing-queue
    // latch describe a path state that no longer exists.
    base_owd_ms_.clear();
    owd_level_ms_ = -1.0;
    level_high_since_ = -1;
    level_tripped_ = false;
  }
  last_ack_ = s.now;

  // Acked bitrate: mean of the driver's delivery-rate samples over a short
  // window. App-limited samples still count — they lower-bound capacity
  // and the AIMD only uses acked_bps as a cut basis / runaway clamp.
  // Until a window first holds a few samples the estimate is reported as
  // 0 (unknown): the first packets of a flow produce wild per-packet
  // rates that must not become a cut basis or growth clamp. Under heavy
  // ACK loss the short window may never fill again, so a longer window
  // backs it up — with acked stuck at 0 the AIMD has no sane cut basis
  // (it cuts against its own target, compounding into a hole) and no
  // growth clamp (it runs away into a standing queue). Once known the
  // estimate stays sticky across spells both windows miss.
  if (s.delivery_rate > 0) {
    ack_rate_.update(s.now, s.delivery_rate);
    ack_rate_long_.update(s.now, s.delivery_rate);
  }
  if (ack_rate_.size() >= 8) {
    acked_bps_ = ack_rate_.get(s.now, acked_bps_);
  } else if (ack_rate_long_.size() >= 8) {
    acked_bps_ = ack_rate_long_.get(s.now, acked_bps_);
  }

  const double owd_ms = util::to_seconds(s.one_way_delay) * 1e3;
  trendline_.update(s.now, owd_ms);
  target_ = aimd_.update(s.now, trendline_.state(), acked_bps_, s.rtt);

  // Standing-queue level detector (class comment has the full rationale):
  // smoothed OWD vs the long-window base. A sustained excess forces an
  // AIMD cut the gradient-blind trendline will never issue, and the latch
  // caps growth at the acked bitrate until the queue demonstrably drains.
  base_owd_ms_.update(s.now, owd_ms);
  owd_level_ms_ = owd_level_ms_ < 0
                      ? owd_ms
                      : kLevelSmoothing * owd_level_ms_ +
                            (1.0 - kLevelSmoothing) * owd_ms;
  const double level_excess_ms =
      owd_level_ms_ - base_owd_ms_.get(s.now, owd_ms);
  if (level_excess_ms > kLevelThresholdMs) {
    if (level_high_since_ < 0) level_high_since_ = s.now;
    if (s.now - level_high_since_ >= kLevelSustain) {
      aimd_.force_decrease(s.now, acked_bps_);
      target_ = aimd_.target_bps();
      level_tripped_ = true;
      ++level_trips_;
      // Re-arm: at most one forced cut per sustain period while the
      // excess stays high — the drain needs time to reach the signal.
      level_high_since_ = s.now;
    }
  } else {
    level_high_since_ = -1;
    if (level_excess_ms < kLevelClearMs) level_tripped_ = false;
  }
  if (level_tripped_ && acked_bps_ > 0) {
    target_ = std::clamp(std::min(target_, acked_bps_),
                         kAimdMinRate, kAimdMaxRate);
  }
  // Sparse-ACK cap: when the short acked window cannot fill but the long
  // one still does, delivery is ACK-clocked (cwnd stalls, not pacing,
  // bound it) and the AIMD's usual kAimdMaxVsAcked headroom stands as queue
  // instead of buying throughput — hold the target to a tight probing
  // margin over measured delivery. When even the long window is starved
  // the sticky estimate is stale, and capping against it freezes the
  // flow at whatever rate the starvation began at; there the AIMD's own
  // growth is the only probe left, so let it run (the trendline window
  // is count-based and stays live on whatever ACKs do arrive, so a wrong
  // guess is still cut within a verdict).
  if (ack_rate_.size() < 8 && ack_rate_long_.size() >= 8 &&
      acked_bps_ > 0) {
    target_ = std::clamp(
        std::min(target_, kSparseHeadroom * acked_bps_),
        kAimdMinRate, kAimdMaxRate);
  }
}

void DelayBasedBwe::seed_target(util::RateBps bps) {
  aimd_.seed(bps);
  target_ = aimd_.target_bps();
}

}  // namespace pbecc::bwe
