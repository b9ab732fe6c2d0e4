#include "baselines/bbr.h"

#include <algorithm>

namespace pbecc::baselines {

namespace {
// The PROBE_BW gain cycle of the paper's Fig 9.
constexpr double kCycleGains[] = {1.25, 0.75, 1, 1, 1, 1, 1, 1};
constexpr int kCycleLen = 8;
constexpr double kStartupGain = 2.885;  // 2/ln(2)
constexpr double kDrainGain = 1.0 / kStartupGain;
constexpr util::Duration kRtpropWindow = 10 * util::kSecond;
constexpr util::Duration kProbeRttDuration = 200 * util::kMillisecond;
constexpr util::Duration kProbeRttInterval = 10 * util::kSecond;
constexpr util::RateBps kInitialRate = 1e6;  // 1 Mbit/s until the first sample
}  // namespace

Bbr::Bbr(BbrConfig cfg)
    : cfg_(std::move(cfg)),
      mode_(cfg_.enter_probe_bw_directly ? Mode::kEntryDrain : Mode::kStartup),
      btlbw_filter_(cfg_.btlbw_window),
      rtprop_(100 * util::kMillisecond),
      rng_(cfg_.seed) {
  // Randomize the initial PROBE_BW phase (not the 0.75 drain phase), as in
  // the reference implementation, so competing flows don't synchronize probes.
  cycle_index_ = static_cast<int>(rng_.uniform_int(2, kCycleLen - 1));
}

void Bbr::seed_estimates(util::Time now, util::RateBps btlbw,
                         util::Duration rtprop) {
  if (btlbw > 0) btlbw_filter_.update(now, btlbw);
  if (rtprop > 0) {
    rtprop_ = rtprop;
    rtprop_stamp_ = now;
  }
}

util::RateBps Bbr::btl_bw(util::Time now) const {
  return btlbw_filter_.get(now, kInitialRate);
}

double Bbr::bdp_bytes(util::Time now, double gain) const {
  const double bdp = btl_bw(now) / util::kBitsPerByte * util::to_seconds(rtprop_);
  return std::max(gain * bdp, 4.0 * net::kDefaultMss);
}

void Bbr::on_packet_sent(util::Time, const net::Packet&, std::uint64_t bif) {
  bytes_in_flight_ = bif;
}

void Bbr::on_ack(const net::AckSample& s) {
  bytes_in_flight_ = s.bytes_in_flight;

  // Round accounting: one round per delivered-BDP of data.
  round_start_ = false;
  if (s.total_delivered_bytes >= next_round_delivered_) {
    next_round_delivered_ = s.total_delivered_bytes +
                            std::max<std::uint64_t>(bytes_in_flight_, 1);
    round_start_ = true;
  }

  if (s.delivery_rate > 0 && !s.is_app_limited) {
    btlbw_filter_.update(s.now, s.delivery_rate);
  }
  // Note the order: expiry must be observed *before* the refresh below, or
  // PROBE_RTT would never trigger (the refresh resets the staleness stamp).
  const bool rtprop_expired = s.now - rtprop_stamp_ > kRtpropWindow;
  if (s.rtt > 0 && (s.rtt <= rtprop_ || rtprop_expired)) {
    rtprop_ = s.rtt;
    rtprop_stamp_ = s.now;
  }

  switch (mode_) {
    case Mode::kStartup:
      if (round_start_) check_full_pipe();
      if (filled_pipe_) mode_ = Mode::kDrain;
      break;
    case Mode::kDrain:
      if (static_cast<double>(bytes_in_flight_) <= bdp_bytes(s.now, 1.0)) {
        mode_ = Mode::kProbeBw;
        cycle_start_ = s.now;
      }
      break;
    case Mode::kEntryDrain:
      // Paper §4.2.3: drain at 0.5 BtlBw to empty the queue that triggered
      // the Internet-bottleneck switch, then probe. The paper suggests one
      // RTprop; we drain until the in-flight data actually fits one BDP
      // (with a 10-RTprop safety valve) — a large transition queue takes
      // several RTprop to clear, and probing on top of it would leave a
      // standing queue for the whole Internet-bottleneck episode.
      if (cycle_start_ == 0) cycle_start_ = s.now;
      if (static_cast<double>(bytes_in_flight_) <= bdp_bytes(s.now, 1.0) ||
          s.now - cycle_start_ >= 10 * rtprop_) {
        mode_ = Mode::kProbeBw;
        cycle_start_ = s.now;
        cycle_index_ = static_cast<int>(rng_.uniform_int(2, kCycleLen - 1));
      }
      break;
    case Mode::kProbeBw:
      advance_cycle(s.now);
      break;
    case Mode::kProbeRtt:
      if (s.now >= probe_rtt_done_) {
        last_probe_rtt_ = s.now;
        mode_ = Mode::kProbeBw;
        cycle_start_ = s.now;
      }
      break;
  }

  maybe_enter_probe_rtt(s.now, rtprop_expired);
}

void Bbr::check_full_pipe() {
  const double bw = btlbw_filter_.get(0, 0.0);
  if (bw > full_bw_ * 1.25) {
    full_bw_ = bw;
    full_bw_count_ = 0;
    return;
  }
  if (++full_bw_count_ >= 3) filled_pipe_ = true;
}

void Bbr::advance_cycle(util::Time now) {
  if (now - cycle_start_ >= rtprop_) {
    cycle_index_ = (cycle_index_ + 1) % kCycleLen;
    cycle_start_ = now;
  }
}

void Bbr::maybe_enter_probe_rtt(util::Time now, bool rtprop_expired) {
  if (mode_ == Mode::kProbeRtt || mode_ == Mode::kStartup) return;
  if (rtprop_expired && now - last_probe_rtt_ > kProbeRttInterval) {
    mode_ = Mode::kProbeRtt;
    probe_rtt_done_ = now + kProbeRttDuration;
  }
}

void Bbr::on_loss(const net::LossSample& s) {
  bytes_in_flight_ = s.bytes_in_flight;
  // BBR v1 mostly ignores losses; a full in-flight loss (RTO) resets the
  // full-pipe latch so STARTUP can re-probe after an outage.
  if (s.bytes_in_flight == 0) {
    filled_pipe_ = false;
    full_bw_ = 0;
    full_bw_count_ = 0;
  }
}

util::RateBps Bbr::pacing_rate(util::Time now) const {
  const util::RateBps bw = btl_bw(now);
  switch (mode_) {
    case Mode::kStartup:
      return kStartupGain * bw;
    case Mode::kDrain:
      return kDrainGain * bw;
    case Mode::kEntryDrain:
      return 0.5 * bw;
    case Mode::kProbeRtt:
      return bw;  // cwnd (4 MSS) does the limiting
    case Mode::kProbeBw: {
      const double gain = kCycleGains[cycle_index_];
      util::RateBps rate = gain * bw;
      if (cfg_.probe_cap && gain >= 1.0) {
        const util::RateBps cap = cfg_.probe_cap();
        if (cap > 0) rate = std::min(rate, cap);
      }
      return rate;
    }
  }
  return bw;
}

double Bbr::cwnd_bytes(util::Time now) const {
  if (mode_ == Mode::kProbeRtt) return 4.0 * net::kDefaultMss;
  const double gain =
      mode_ == Mode::kStartup ? kStartupGain : cfg_.cwnd_gain;
  return bdp_bytes(now, gain);
}

}  // namespace pbecc::baselines
