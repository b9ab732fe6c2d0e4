// GoogCc ("gcc"): the delay-gradient BWE from src/bwe exposed as a
// standalone congestion controller, so the hybrid blend's endpoint-only
// half can be benchmarked on its own against PBE-CC and the other
// baselines (ROADMAP item 4). Pacing rate is the AIMD target; the window
// is 2x the target's BDP against the tracked minimum RTT, enough to keep
// the pacer rate-limited rather than window-limited.
#pragma once

#include "net/congestion_controller.h"
#include "util/windowed_filter.h"

#include "bwe/delay_bwe.h"

namespace pbecc::baselines {

class GoogCc : public net::CongestionController {
 public:
  GoogCc();

  void on_ack(const net::AckSample& s) override;
  void on_loss(const net::LossSample& s) override;

  util::RateBps pacing_rate(util::Time now) const override;
  double cwnd_bytes(util::Time now) const override;
  std::string name() const override { return "gcc"; }

  const bwe::DelayBasedBwe& estimator() const { return bwe_; }

 private:
  bwe::DelayBasedBwe bwe_;
  mutable util::WindowedMin<util::Duration> rtprop_;
  util::Duration last_rtt_ = 100 * util::kMillisecond;
  // Multiplicative loss backoff, applied on top of the delay target and
  // decayed by re-arming only after a hold (one cut per loss burst).
  double loss_cap_ = 0.0;  // 0 = no active cap
  util::Time last_loss_cut_ = -1;
};

}  // namespace pbecc::baselines
