#include "baselines/sprout.h"

#include <algorithm>
#include <cmath>

namespace pbecc::baselines {

namespace {
// Forecast update period, and the in-network time the window targets.
constexpr util::Duration kTick = 20 * util::kMillisecond;
constexpr util::Duration kHorizon = 100 * util::kMillisecond;
// ~5th percentile of a normal forecast.
constexpr double kPercentileSigma = 1.64;
constexpr double kDriftGain = 0.2;  // uncertainty growth per tick
}  // namespace

void Sprout::on_ack(const net::AckSample& s) {
  bytes_in_flight_ = s.bytes_in_flight;
  bytes_this_tick_ += s.acked_bytes;
  if (tick_start_ == 0) tick_start_ = s.now;
  if (s.now - tick_start_ >= kTick) tick_update(s.now);
}

void Sprout::tick_update(util::Time now) {
  const double elapsed_sec = util::to_seconds(now - tick_start_);
  tick_start_ = now;
  if (elapsed_sec <= 0) return;

  const double observed = bytes_this_tick_ * util::kBitsPerByte / elapsed_sec;
  bytes_this_tick_ = 0;

  // Brownian update: the mean tracks observations; the variance mixes
  // measurement noise with drift, so a quiet link narrows the forecast and
  // a bursty one widens it.
  const double innovation = observed - rate_mean_;
  rate_mean_ += 0.25 * innovation;
  rate_var_ = 0.75 * rate_var_ + 0.25 * innovation * innovation;
  rate_var_ *= (1.0 + kDriftGain * elapsed_sec);

  const double std_dev = std::sqrt(std::max(rate_var_, 0.0));
  cautious_rate_ = std::max(rate_mean_ - kPercentileSigma * std_dev,
                            0.3 * rate_mean_);
}

util::RateBps Sprout::pacing_rate(util::Time) const {
  // Small multiplicative headroom plus an additive probe: without it the
  // forecast can only ever observe what it itself sends and the rate pins
  // to the floor (the real Sprout probes through its tick-by-tick cwnd
  // slack). The conservative percentile still keeps utilization low.
  return std::max(cautious_rate_ * 1.1 + 3e5, 5e5);
}

double Sprout::cwnd_bytes(util::Time) const {
  // Send only what the cautious forecast drains within the horizon.
  const double budget_bytes = pacing_rate(0) / util::kBitsPerByte *
                              util::to_seconds(kHorizon);
  return std::max(budget_bytes, 4.0 * net::kDefaultMss);
}

}  // namespace pbecc::baselines
