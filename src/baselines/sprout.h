// Sprout (Winstein, Sivaraman, Balakrishnan — NSDI 2013): models the
// cellular link rate as a stochastic (Brownian) process inferred from
// packet arrival times and sends only what the 5th-percentile forecast of
// the next 100 ms can absorb.
//
// The conservative percentile keeps delay low but sacrifices throughput —
// the paper groups Sprout with the four "low throughput" algorithms and
// shows it almost never triggers carrier aggregation (Fig 15).
#pragma once

#include "net/congestion_controller.h"

namespace pbecc::baselines {

class Sprout : public net::CongestionController {
 public:
  void on_ack(const net::AckSample& s) override;
  void on_loss(const net::LossSample&) override {}

  util::RateBps pacing_rate(util::Time now) const override;
  double cwnd_bytes(util::Time now) const override;
  std::string name() const override { return "sprout"; }

 private:
  void tick_update(util::Time now);

  // Delivery-rate process estimate (bits/s): mean and std dev.
  double rate_mean_ = 1e6;
  double rate_var_ = 1e12;
  double bytes_this_tick_ = 0;
  util::Time tick_start_ = 0;
  std::uint64_t bytes_in_flight_ = 0;
  double cautious_rate_ = 5e5;
};

}  // namespace pbecc::baselines
