// CUBIC (Ha, Rhee, Xu — SIGOPS OSR 2008), the Linux default loss-based
// controller the paper compares against.
//
// Window growth W(t) = C (t - K)^3 + Wmax with K = cbrt(Wmax * beta / C),
// multiplicative decrease by beta on loss, fast convergence, and the
// TCP-friendly (Reno-tracking) region. Loss-based: it fills whatever
// buffer the bottleneck has, which on cellular links is exactly the
// bufferbloat behaviour the paper's Figs 13-14 show.
#pragma once

#include "net/congestion_controller.h"

namespace pbecc::baselines {

class Cubic : public net::CongestionController {
 public:
  Cubic();

  void on_ack(const net::AckSample& s) override;
  void on_loss(const net::LossSample& s) override;

  util::RateBps pacing_rate(util::Time now) const override;
  double cwnd_bytes(util::Time now) const override;
  std::string name() const override { return "cubic"; }

  double cwnd_segments() const { return cwnd_; }

 private:
  double cubic_window(double t_sec) const;
  void enter_recovery(util::Time now);

  double cwnd_;           // in segments
  double ssthresh_ = 1e9; // in segments
  double w_max_ = 0;
  double w_last_max_ = 0;
  util::Time epoch_start_ = -1;
  double k_ = 0;
  double w_tcp_ = 0;      // TCP-friendly estimate
  util::Duration srtt_ = 100 * util::kMillisecond;
  util::Time recovery_until_ = 0;
};

}  // namespace pbecc::baselines
