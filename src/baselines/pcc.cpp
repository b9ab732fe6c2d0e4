#include "baselines/pcc.h"

#include <algorithm>
#include <cmath>

namespace pbecc::baselines {

namespace {
constexpr double kEpsilon = 0.05;  // trial rate offset
}  // namespace

void MonitorIntervals::on_ack(const net::AckSample& s) {
  if (mi_start_ == 0) mi_start_ = s.now;
  if (s.rtt > 0) {
    srtt_ = (7 * srtt_ + s.rtt) / 8;
    const double y = util::to_millis(s.rtt);
    const double x = util::to_millis(s.now - mi_start_);
    rtt_sum_ms_ += y;
    sx_ += x;
    sy_ += y;
    sxx_ += x * x;
    sxy_ += x * y;
    ++rtt_count_;
  }
  acked_bytes_ += s.acked_bytes;
}

void MonitorIntervals::on_loss(const net::LossSample& s) {
  lost_bytes_ += s.lost_bytes;
}

std::optional<MonitorIntervals::MiResult> MonitorIntervals::poll(
    util::Time now, util::Duration mi_len) {
  if (mi_start_ == 0 || now - mi_start_ < mi_len) return std::nullopt;
  MiResult r;
  r.duration = now - mi_start_;
  const double sec = util::to_seconds(r.duration);
  r.throughput_bps = acked_bytes_ * util::kBitsPerByte / sec;
  const double total = acked_bytes_ + lost_bytes_;
  r.loss_rate = total > 0 ? lost_bytes_ / total : 0.0;
  r.avg_rtt_ms = rtt_count_ > 0 ? rtt_sum_ms_ / static_cast<double>(rtt_count_)
                                : util::to_millis(srtt_);
  if (rtt_count_ >= 2) {
    const auto n = static_cast<double>(rtt_count_);
    const double denom = n * sxx_ - sx_ * sx_;
    if (denom > 1e-9) r.rtt_slope = (n * sxy_ - sx_ * sy_) / denom;
  }
  mi_start_ = now;
  acked_bytes_ = lost_bytes_ = rtt_sum_ms_ = 0;
  sx_ = sy_ = sxx_ = sxy_ = 0;
  rtt_count_ = 0;
  return r;
}

// ---------------------------------------------------------------- Allegro

PccAllegro::PccAllegro(PccConfig cfg)
    : rate_(cfg.initial_rate), rng_(cfg.seed) {
  // Random pairing of the four trials: two +eps, two -eps.
  trial_sign_ = {+1, -1, +1, -1};
  if (rng_.bernoulli(0.5)) std::swap(trial_sign_[0], trial_sign_[1]);
  if (rng_.bernoulli(0.5)) std::swap(trial_sign_[2], trial_sign_[3]);
}

double PccAllegro::utility(const MonitorIntervals::MiResult& mi) {
  // NSDI'15 utility: throughput rewarded, loss punished through a sigmoid
  // cliff at 5%plus a linear term.
  const double t = mi.throughput_bps / 1e6;  // Mbit/s
  const double l = mi.loss_rate;
  const double sigmoid = 1.0 / (1.0 + std::exp(-100.0 * (l - 0.05)));
  return t * (1.0 - sigmoid) - t * l;
}

void PccAllegro::on_ack(const net::AckSample& s) {
  mi_.on_ack(s);
  // MI of ~1 RTT, bounded: without the upper bound a rapidly bloating
  // queue inflates the RTT faster than wall-clock time advances and no
  // monitor interval ever completes (the rate would freeze forever).
  const util::Duration mi_len = std::clamp<util::Duration>(
      mi_.srtt(), 10 * util::kMillisecond, 200 * util::kMillisecond);
  if (auto r = mi_.poll(s.now, mi_len)) on_mi(*r, s.now);
}

void PccAllegro::on_loss(const net::LossSample& s) { mi_.on_loss(s); }

void PccAllegro::on_mi(const MonitorIntervals::MiResult& mi, util::Time) {
  const double u = utility(mi);
  switch (mode_) {
    case Mode::kStarting:
      if (u > prev_utility_) {
        prev_utility_ = u;
        rate_ = std::min(rate_ * 2.0, kPccMaxRate);
      } else {
        rate_ = std::max(rate_ / 2.0, kPccMinRate);
        mode_ = Mode::kDecision;
        trial_index_ = 0;
      }
      break;
    case Mode::kDecision: {
      trial_utility_[static_cast<std::size_t>(trial_index_)] = u;
      ++trial_index_;
      if (trial_index_ < 4) break;
      trial_index_ = 0;
      // Compare the two +eps trials against the two -eps trials.
      double up = 0, down = 0;
      for (int i = 0; i < 4; ++i) {
        (trial_sign_[static_cast<std::size_t>(i)] > 0 ? up : down) +=
            trial_utility_[static_cast<std::size_t>(i)];
      }
      if (up > down) {
        rate_ = std::min(rate_ * (1.0 + eps_), kPccMaxRate);
        eps_ = 0.01;
      } else if (down > up) {
        rate_ = std::max(rate_ * (1.0 - eps_), kPccMinRate);
        eps_ = 0.01;
      } else {
        eps_ = std::min(eps_ + 0.01, kEpsilon);
      }
      break;
    }
  }
}

util::RateBps PccAllegro::pacing_rate(util::Time) const {
  if (mode_ == Mode::kDecision) {
    const double sign = trial_sign_[static_cast<std::size_t>(trial_index_)];
    return rate_ * (1.0 + sign * eps_);
  }
  return rate_;
}

// ---------------------------------------------------------------- Vivace

PccVivace::PccVivace(PccConfig cfg) : rate_(cfg.initial_rate) {}

double PccVivace::utility(const MonitorIntervals::MiResult& mi) {
  // u = x^0.9 - b * x * d(RTT)/dt - c * x * L   (x in Mbit/s)
  const double x = mi.throughput_bps / 1e6;
  const double l = mi.loss_rate;
  // Within-MI RTT slope (endpoint fit standing in for Vivace's per-packet
  // linear regression). b is scaled down from the NSDI'18 value (900):
  // the cellular link injects 8 ms HARQ delay steps that the regression
  // only partially damps; at b=900 the penalty swamps the reward and the
  // rate collapses to the floor.
  const double rtt_grad = std::max(mi.rtt_slope, 0.0);
  constexpr double b = 50.0, c = 11.35;
  return std::pow(std::max(x, 1e-6), 0.9) - b * x * rtt_grad - c * x * l;
}

void PccVivace::on_ack(const net::AckSample& s) {
  mi_.on_ack(s);
  // Bounded for the same reason as Allegro's MI (see above).
  const util::Duration mi_len = std::clamp<util::Duration>(
      mi_.srtt() / 2, 10 * util::kMillisecond, 100 * util::kMillisecond);
  if (auto r = mi_.poll(s.now, mi_len)) on_mi(*r, s.now);
}

void PccVivace::on_loss(const net::LossSample& s) { mi_.on_loss(s); }

void PccVivace::on_mi(const MonitorIntervals::MiResult& mi, util::Time) {
  trial_utility_[trial_index_] = utility(mi);
  if (++trial_index_ < 2) return;
  trial_index_ = 0;

  const double du = trial_utility_[0] - trial_utility_[1];  // +eps minus -eps
  const double dr = 2.0 * kEpsilon * rate_ / 1e6;       // Mbit/s
  if (dr <= 0) return;
  double gradient = du / dr;

  // Confidence amplification: consecutive same-sign gradients take larger
  // steps; a sign flip resets.
  const double sign = gradient > 0 ? 1.0 : (gradient < 0 ? -1.0 : 0.0);
  confidence_ = (sign != 0 && sign == last_gradient_sign_)
                    ? std::min(confidence_ + 1.0, 8.0)
                    : 1.0;
  last_gradient_sign_ = sign;

  constexpr double theta = 0.02e6;  // rate step per unit utility gradient
  double step = theta * confidence_ * gradient;
  const double max_step = 0.08 * rate_;
  step = std::clamp(step, -max_step, max_step);
  rate_ = std::clamp(rate_ + step, kPccMinRate, kPccMaxRate);
}

util::RateBps PccVivace::pacing_rate(util::Time) const {
  const double sign = trial_index_ == 0 ? +1.0 : -1.0;
  return rate_ * (1.0 + sign * kEpsilon);
}

}  // namespace pbecc::baselines
