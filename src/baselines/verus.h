// Verus (Zaki et al., SIGCOMM 2015): learns a delay profile — a mapping
// from sending window to observed end-to-end delay — and each epoch picks
// the window whose profiled delay matches a delay target that is itself
// steered up/down by the measured delay gradient.
//
// Characteristic behaviour the paper reproduces (Figs 13-14): high
// throughput on cellular links but large standing delays, because the
// profile tolerates multi-hundred-ms queues while probing.
#pragma once

#include <vector>

#include "net/congestion_controller.h"
#include "util/windowed_filter.h"

namespace pbecc::baselines {

class Verus : public net::CongestionController {
 public:
  Verus();

  void on_ack(const net::AckSample& s) override;
  void on_loss(const net::LossSample& s) override;

  util::RateBps pacing_rate(util::Time now) const override;
  double cwnd_bytes(util::Time now) const override;
  std::string name() const override { return "verus"; }

 private:
  void epoch_update(util::Time now);
  int window_for_delay(double target_delay_ms) const;

  double cwnd_ = 10;  // segments
  // Delay profile: profile_[w] = EWMA of delay (ms) observed when the
  // in-flight window was about w segments.
  std::vector<double> profile_;
  double d_est_ms_ = 0;      // smoothed current delay
  double d_min_ms_ = 1e9;    // minimum observed delay
  double d_target_ms_ = 0;
  util::Time last_epoch_ = 0;
  util::Duration srtt_ = 100 * util::kMillisecond;
  bool in_recovery_ = false;
};

}  // namespace pbecc::baselines
