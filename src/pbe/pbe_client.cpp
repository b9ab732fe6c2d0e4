#include "pbe/pbe_client.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"
#include "util/rate.h"

namespace pbecc::pbe {

namespace {
// Linear rate increase spans this many RTprop (paper: three RTTs).
constexpr double kRampRtts = 3.0;
// Fraction of the fair share the receive rate must reach to declare the
// ramp complete / the wireless link re-bottlenecked.
constexpr double kRateAttainedFraction = 0.9;
}  // namespace

PbeClient::PbeClient(PbeClientConfig cfg, ChannelQuery channel_query)
    : cfg_(std::move(cfg)),
      channel_(std::move(channel_query)),
      pipeline_(cfg_, [this](phy::CellId c) {
        const auto ch = channel_(c);
        const phy::Mcs mcs{ch.cqi, ch.sinr_db >= 14.0 ? 2 : 1};
        return CellInputs{ch.control_ber, mcs.bits_per_prb()};
      }) {}

double PbeClient::current_p() const {
  // Residual BER estimated from SINR (paper: "We estimate p using measured
  // signal to interference noise ratio"); primary cell dominates.
  if (cfg_.cells.empty() || !channel_) return 1e-6;
  return channel_(cfg_.cells.front().id).data_ber;
}

double PbeClient::recv_rate_bps(util::Time now) {
  const util::Duration win =
      std::max<util::Duration>(2 * rtprop_est_, 40 * util::kMillisecond);
  while (!recv_window_.empty() && recv_window_.front().first < now - win) {
    recv_window_bytes_ -= recv_window_.front().second;
    recv_window_.pop_front();
  }
  if (recv_window_.empty()) return 0;
  return static_cast<double>(recv_window_bytes_) * 8.0 / util::to_seconds(win);
}

void PbeClient::update_state(util::Time now, double cf_bps) {
  const bool delay_high = delay_.internet_bottleneck();
  const double recv = recv_rate_bps(now);
  const bool rate_attained = recv >= kRateAttainedFraction * cf_bps;

  switch (state_) {
    case State::kStartup: {
      if (delay_high) {
        // Receive rate stalled below Cf while delay rises: the bottleneck
        // is in the Internet (§4.1 last paragraph).
        state_ = State::kInternet;
        break;
      }
      const auto ramp_len = static_cast<util::Duration>(
          kRampRtts * static_cast<double>(rtprop_est_));
      if (rate_attained || (ramp_start_ >= 0 && now - ramp_start_ >= ramp_len)) {
        state_ = State::kWireless;
      }
      break;
    }
    case State::kWireless:
      if (delay_high) {
        state_ = State::kInternet;
        break;
      }
      // Fair-share re-approach: a flow pushed well below its share (e.g.
      // by a transient competitor) sees Pa small and Pidle ~ 0, so the
      // Eqn 3 estimate alone cannot pull it back up — Pa only grows if the
      // sender offers more. Re-run the §4.1 linear approach toward Cf; the
      // cell's fair scheduler grants the extra demand out of over-share
      // users, whose own monitors then see Pa shrink and back off.
      if (recv < 0.75 * cf_bps) {
        if (below_share_since_ == util::kNever) below_share_since_ = now;
        if (now - below_share_since_ >= 4 * rtprop_est_) {
          state_ = State::kStartup;
          ramp_start_ = now;
          ramp_base_bps_ = last_feedback_bps_;
          below_share_since_ = util::kNever;
        }
      } else {
        below_share_since_ = util::kNever;
      }
      break;
    case State::kInternet:
      // Exit only when the send rate reached Cf *and* no queuing shows
      // (Npkt consecutive packets under the threshold cleared the flag).
      if (!delay_high && rate_attained) state_ = State::kWireless;
      break;
  }
}

void PbeClient::fill_feedback(const net::Packet& pkt, util::Time now,
                              net::Ack& ack) {
  PBECC_PROF_SCOPE("fill_feedback");
  if (ramp_start_ < 0) ramp_start_ = now;
  ++pkts_total_;
  const State prev_state = state_;

  // --- Delay tracking.
  const util::Duration owd = now - pkt.sent_time;
  delay_.on_packet(now, owd, last_ct_bits_sf_);

  // RTprop estimate from one-way propagation delay (uplink assumed
  // symmetric); drives the estimator's averaging window (§4.2.1).
  const util::Duration dprop = delay_.dprop(now);
  if (dprop > 0) {
    rtprop_est_ = std::clamp<util::Duration>(2 * dprop + 4 * util::kMillisecond,
                                             20 * util::kMillisecond,
                                             400 * util::kMillisecond);
    pipeline_.set_window(now, rtprop_est_);
  }

  // --- Receive-rate window.
  recv_window_.emplace_back(now, pkt.bytes);
  recv_window_bytes_ += pkt.bytes;

  // --- Capacity estimates, physical -> transport (Eqn 5).
  const double p = current_p();
  const MeasurementPipeline::Probe probe = pipeline_.probe(now);
  const double cf_t = translator_.to_transport(probe.cf_bits_sf, p);
  const double cp_t = translator_.to_transport(probe.cp_bits_sf, p);
  const double cf_bps = util::bits_per_subframe_to_bps(cf_t);

  // --- Carrier (de)activation: a newly activated cell restarts the
  // fair-share ramp (§4.1). Hysteresis: a lightly used cell drifting in
  // and out of the activity window must not retrigger the ramp, so a
  // restart requires one second since the previous count increase. The
  // re-ramp starts from the current rate, not from zero — the paper's
  // from-zero ramp is for connection start, where there is no rate yet.
  const int cells_now = probe.active_cells;
  if (cells_now > last_cell_count_ &&
      now - last_cell_increase_ > util::kSecond) {
    state_ = State::kStartup;
    ramp_start_ = now;
    ramp_base_bps_ = last_feedback_bps_;
    last_cell_increase_ = now;
  }
  last_cell_count_ = cells_now;

  update_state(now, cf_bps);
  if (state_ == State::kInternet) ++pkts_internet_;

  // --- Feedback selection.
  double rate_bps = 0;
  switch (state_) {
    case State::kStartup: {
      const auto ramp_len = static_cast<double>(static_cast<util::Duration>(
          kRampRtts * static_cast<double>(rtprop_est_)));
      const double frac = ramp_len > 0
                              ? std::clamp(static_cast<double>(now - ramp_start_) /
                                           ramp_len, 0.05, 1.0)
                              : 1.0;
      // Linear ramp from the base (0 at connection start, the current rate
      // on a carrier-activation re-ramp) up to the fair share Cf.
      rate_bps = ramp_base_bps_ + (cf_bps - ramp_base_bps_) * frac;
      if (cf_bps < ramp_base_bps_) rate_bps = cf_bps;  // never ramp downward past Cf
      break;
    }
    case State::kWireless:
      rate_bps = util::bits_per_subframe_to_bps(cp_t);
      break;
    case State::kInternet:
      rate_bps = cf_bps;  // the probing cap Cf (Eqn 7)
      break;
  }
  // Floor: even when the estimator momentarily sees no service (e.g. the
  // flow went app-limited and no grants arrived within the window), keep a
  // trickle flowing so grants — and with them fresh estimates — resume.
  rate_bps = std::max(rate_bps, 1e6);
  last_ct_bits_sf_ = util::bps_to_bits_per_subframe(rate_bps);
  last_feedback_bps_ = rate_bps;

  // --- Feedback confidence (degradation input, §8 of DESIGN.md).
  const double conf = confidence(now);
  ack.pbe_confidence =
      static_cast<std::uint8_t>(std::lround(conf * 255.0));
  static obs::Gauge& conf_gauge = obs::gauge("pbe.client.confidence");
  conf_gauge.set(conf);

  // --- Encode: interval in microseconds between two MSS-size packets.
  if (rate_bps > 1000.0) {
    const double interval_us =
        static_cast<double>(net::kDefaultMss) * 8.0 / rate_bps * 1e6;
    ack.pbe_rate_interval_us =
        static_cast<std::uint32_t>(std::clamp(interval_us, 1.0, 4e9));
  } else {
    ack.pbe_rate_interval_us = 0;
  }
  ack.pbe_internet_bottleneck = state_ == State::kInternet;

  if (state_ != prev_state) {
    static obs::Counter& switches = obs::counter("pbe.client.state_switches");
    switches.inc();
    obs::emit(obs::EventKind::kClientStateSwitch, now, 0,
              static_cast<std::uint32_t>(prev_state),
              static_cast<std::int64_t>(state_));
  }
  obs::emit(obs::EventKind::kFeedbackSent, now, 0, 0,
            static_cast<std::int64_t>(state_), rate_bps,
            util::to_seconds(owd) * 1e3);
}

double PbeClient::confidence(util::Time now) const {
  double conf = pipeline_.monitor().decode_success_rate(now);
  // Estimate freshness: a feed that stopped updating (blackout, stall) is
  // worth less the older it gets — full trust up to 50 ms of age, linear
  // decay to zero at 300 ms.
  const util::Time lu = pipeline_.estimator().last_update();
  if (lu > 0) {
    const util::Duration age = now - lu;
    if (age > 50 * util::kMillisecond) {
      const double freshness =
          1.0 - static_cast<double>(age - 50 * util::kMillisecond) /
                    static_cast<double>(250 * util::kMillisecond);
      conf *= std::clamp(freshness, 0.0, 1.0);
    }
  }
  return std::clamp(conf, 0.0, 1.0);
}

double PbeClient::internet_state_fraction() const {
  if (pkts_total_ == 0) return 0;
  return static_cast<double>(pkts_internet_) / static_cast<double>(pkts_total_);
}

}  // namespace pbecc::pbe
