// Copa (Arun & Balakrishnan, NSDI 2018): delay-based with a target rate of
// 1 / (delta * queueing-delay) and velocity-based window adjustment.
//
// Queueing delay is measured as RTTstanding - RTTmin. Copa is conservative
// on links with delay jitter it cannot distinguish from queueing — on
// cellular links the 8 ms HARQ retransmission spikes look like queueing,
// which is why the paper measures roughly an 11x throughput deficit for
// Copa against PBE-CC while its delay stays excellent.
#pragma once

#include "net/congestion_controller.h"
#include "util/windowed_filter.h"

namespace pbecc::baselines {

class Copa : public net::CongestionController {
 public:
  Copa();

  void on_ack(const net::AckSample& s) override;
  void on_loss(const net::LossSample& s) override;

  util::RateBps pacing_rate(util::Time now) const override;
  double cwnd_bytes(util::Time now) const override;
  std::string name() const override { return "copa"; }

 private:
  void update_velocity(bool direction_up);

  double cwnd_;  // segments
  double velocity_ = 1.0;
  bool last_direction_up_ = true;
  int same_direction_count_ = 0;
  util::Time last_velocity_update_ = 0;
  util::Duration srtt_ = 100 * util::kMillisecond;
  mutable util::WindowedMin<util::Duration> rtt_min_;
  mutable util::WindowedMin<util::Duration> rtt_standing_;  // over srtt/2
};

}  // namespace pbecc::baselines
