#include "baselines/goog_cc.h"

#include <algorithm>

namespace pbecc::baselines {

namespace {
constexpr double kCwndGain = 2.0;
constexpr util::Duration kRtpropWindow = 10 * util::kSecond;
// Loss is a secondary signal for a delay-based scheme, but ignoring it
// entirely lets a policer starve everyone: cut like AIMD's beta.
constexpr double kLossBeta = 0.85;
constexpr util::Duration kLossBackoffHold = 200 * util::kMillisecond;
}  // namespace

GoogCc::GoogCc() : rtprop_(kRtpropWindow) {}

void GoogCc::on_ack(const net::AckSample& s) {
  if (s.rtt > 0) {
    rtprop_.update(s.now, s.rtt);
    last_rtt_ = s.rtt;
  }
  bwe_.on_ack(s);
  // A delay target below the loss cap means the delay path has caught up
  // with (and gone under) the loss event; retire the cap.
  if (loss_cap_ > 0 && bwe_.target_bps() <= loss_cap_) loss_cap_ = 0.0;
}

void GoogCc::on_loss(const net::LossSample& s) {
  if (last_loss_cut_ >= 0 && s.now - last_loss_cut_ < kLossBackoffHold) {
    return;  // one cut per burst
  }
  const double basis = loss_cap_ > 0
                           ? std::min<double>(loss_cap_, bwe_.target_bps())
                           : bwe_.target_bps();
  loss_cap_ = std::max(kLossBeta * basis, bwe::kAimdMinRate);
  last_loss_cut_ = s.now;
}

util::RateBps GoogCc::pacing_rate(util::Time) const {
  const util::RateBps target = bwe_.target_bps();
  if (loss_cap_ > 0) return std::min<util::RateBps>(target, loss_cap_);
  return target;
}

double GoogCc::cwnd_bytes(util::Time now) const {
  const util::Duration rtprop = rtprop_.get(now, last_rtt_);
  const double bdp = pacing_rate(now) / util::kBitsPerByte *
                     util::to_seconds(std::max<util::Duration>(rtprop, 1));
  return std::max(kCwndGain * bdp,
                  4.0 * static_cast<double>(net::kDefaultMss));
}

}  // namespace pbecc::baselines
