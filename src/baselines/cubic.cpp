#include "baselines/cubic.h"

#include <algorithm>
#include <cmath>

namespace pbecc::baselines {

namespace {
constexpr double kC = 0.4;     // scaling constant (segments/sec^3)
constexpr double kBeta = 0.7;  // multiplicative decrease factor
constexpr double kInitialCwndSegments = 10;
// Pacing headroom over cwnd/srtt so the window, not the pacer, limits.
constexpr double kPacingGain = 1.25;
}  // namespace

Cubic::Cubic() : cwnd_(kInitialCwndSegments) {}

double Cubic::cubic_window(double t_sec) const {
  const double dt = t_sec - k_;
  return kC * dt * dt * dt + w_max_;
}

void Cubic::on_ack(const net::AckSample& s) {
  if (s.rtt > 0) srtt_ = (7 * srtt_ + s.rtt) / 8;

  if (cwnd_ < ssthresh_) {
    cwnd_ += 1.0;  // slow start: one segment per acked segment
    return;
  }

  // Congestion avoidance: cubic growth against wall-clock epoch time.
  if (epoch_start_ < 0) {
    epoch_start_ = s.now;
    if (w_max_ < cwnd_) {
      w_max_ = cwnd_;
      k_ = 0;
    } else {
      k_ = std::cbrt(w_max_ * (1.0 - kBeta) / kC);
    }
    w_tcp_ = cwnd_;
  }
  const double t = util::to_seconds(s.now - epoch_start_);
  const double target = cubic_window(t);

  // TCP-friendly region (standard Reno-rate tracking).
  const double rtt_sec = std::max(util::to_seconds(srtt_), 1e-3);
  w_tcp_ += 3.0 * (1.0 - kBeta) / (1.0 + kBeta) * (1.0 / cwnd_);
  const double floor_w = std::max(target, w_tcp_);

  if (floor_w > cwnd_) {
    // Spread the increase over the RTT, approximated per ack.
    cwnd_ += (floor_w - cwnd_) / std::max(cwnd_, 1.0);
  } else {
    cwnd_ += 0.01 / std::max(cwnd_, 1.0);  // slow max-probing
  }
  (void)rtt_sec;
}

void Cubic::enter_recovery(util::Time now) {
  if (now < recovery_until_) return;  // one decrease per RTT-ish
  recovery_until_ = now + srtt_;
  if (cwnd_ < w_last_max_) {  // fast convergence
    w_last_max_ = cwnd_;
    w_max_ = cwnd_ * (1.0 + kBeta) / 2.0;
  } else {
    w_last_max_ = cwnd_;
    w_max_ = cwnd_;
  }
  cwnd_ = std::max(cwnd_ * kBeta, 2.0);
  ssthresh_ = cwnd_;
  epoch_start_ = -1;
}

void Cubic::on_loss(const net::LossSample& s) {
  if (s.bytes_in_flight == 0) {
    // RTO: collapse like TCP.
    ssthresh_ = std::max(cwnd_ * kBeta, 2.0);
    cwnd_ = kInitialCwndSegments;
    epoch_start_ = -1;
    return;
  }
  enter_recovery(s.now);
}

util::RateBps Cubic::pacing_rate(util::Time) const {
  const double rtt_sec = std::max(util::to_seconds(srtt_), 1e-3);
  return kPacingGain * cwnd_bytes(0) * util::kBitsPerByte / rtt_sec;
}

double Cubic::cwnd_bytes(util::Time) const { return cwnd_ * net::kDefaultMss; }

}  // namespace pbecc::baselines
