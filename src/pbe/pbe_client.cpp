#include "pbe/pbe_client.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"
#include "util/rate.h"

namespace pbecc::pbe {

PbeClient::PbeClient(PbeClientConfig cfg, ChannelQuery channel_query)
    : cfg_(std::move(cfg)), channel_(std::move(channel_query)),
      delay_(cfg_.delay) {
  // The first configured cell is the primary carrier: the connection-start
  // fair-share fallback must target it regardless of CellId ordering.
  if (!cfg_.cells.empty()) estimator_.set_primary_cell(cfg_.cells.front().id);
  monitor_ = std::make_unique<decoder::Monitor>(
      cfg_.rnti, cfg_.cells,
      [this](const std::vector<decoder::CellObservation>& obs) {
        if (obs.empty()) return;
        if (taps_.on_observations) taps_.on_observations(obs);
        // Estimates timestamp at the end of the latest tick in the fused
        // emission: (sf_index + 1) * tick per observation, maximized over
        // the batch. For LTE-only sets every tick is 1 ms and this is
        // exactly subframe_start(sf_index + 1). ReplayDriver mirrors this
        // formula — keep the two in lockstep.
        util::Time now = 0;
        for (const auto& o : obs) {
          now = std::max(now, (o.sf_index + 1) * o.tick);
        }
        estimator_.on_observations(now, obs, [this](phy::CellId c) {
          const auto ch = channel_(c);
          const phy::Mcs mcs{ch.cqi, ch.sinr_db >= 14.0 ? 2 : 1};
          return mcs.bits_per_prb();
        });
      },
      [this](phy::CellId c) { return channel_(c).control_ber; },
      cfg_.tracker, cfg_.seed, cfg_.faults);
}

void PbeClient::on_pdcch(const phy::PdcchSubframe& sf) { monitor_->on_pdcch(sf); }

void PbeClient::on_pdcch_batch(const std::vector<phy::PdcchSubframe>& sfs) {
  // Both taps apply only to batches carrying >=1 monitored cell — the
  // same condition under which a capture emits a batch record, so replay
  // sees identical tick streams.
  std::int64_t monitored_sf = -1;
  if (taps_.on_batch || taps_.on_batch_end) {
    for (const auto& sf : sfs) {
      if (monitor_->has_cell(sf.cell_id)) {
        // Master 1 ms subframe index, whatever the cell's slot clock —
        // matches the batch record's sf_index so replay's batch-end hook
        // fires with identical values.
        monitored_sf = sf.sf_index * sf.tick / util::kSubframe;
        break;
      }
    }
  }
  if (taps_.on_batch && monitored_sf >= 0) {
    // Capture exactly what the pipeline will consume: the monitored cells'
    // clean control regions plus, per cell, the base control BER the
    // monitor's ber_fn would return and the own-CSI Rw hint the estimator
    // would compute from current channel state.
    std::vector<phy::PdcchSubframe> kept;
    std::vector<double> bers, bpps;
    for (const auto& sf : sfs) {
      if (!monitor_->has_cell(sf.cell_id)) continue;
      const auto ch = channel_(sf.cell_id);
      const phy::Mcs mcs{ch.cqi, ch.sinr_db >= 14.0 ? 2 : 1};
      kept.push_back(sf);
      bers.push_back(ch.control_ber);
      bpps.push_back(mcs.bits_per_prb());
    }
    if (!kept.empty()) taps_.on_batch(kept, bers, bpps);
  }
  monitor_->on_pdcch_batch(sfs);
  if (taps_.on_batch_end && monitored_sf >= 0) taps_.on_batch_end(monitored_sf);
}

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
  const bool rate_attained = recv >= cfg_.rate_attained_fraction * cf_bps;

  switch (state_) {
    case State::kStartup: {
      if (delay_high) {
        // Receive rate stalled below Cf while delay rises: the bottleneck
        // is in the Internet (§4.1 last paragraph).
        state_ = State::kInternet;
        break;
      }
      const auto ramp_len = static_cast<util::Duration>(
          cfg_.ramp_rtts * static_cast<double>(rtprop_est_));
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
    estimator_.set_window(rtprop_est_);
    monitor_->set_tracker_window(rtprop_est_);
    if (taps_.on_window_set) taps_.on_window_set(now, rtprop_est_);
  }

  // --- Receive-rate window.
  recv_window_.emplace_back(now, pkt.bytes);
  recv_window_bytes_ += pkt.bytes;

  // --- Capacity estimates, physical -> transport (Eqn 5).
  const double p = current_p();
  const double cf_phys = estimator_.fair_share_capacity(now);
  const double cp_phys = estimator_.available_capacity(now);
  const double cf_t = translator_.to_transport(cf_phys, p);
  const double cp_t = translator_.to_transport(cp_phys, p);
  const double cf_bps = util::bits_per_subframe_to_bps(cf_t);

  // --- Carrier (de)activation: a newly activated cell restarts the
  // fair-share ramp (§4.1). Hysteresis: a lightly used cell drifting in
  // and out of the activity window must not retrigger the ramp, so a
  // restart requires one second since the previous count increase. The
  // re-ramp starts from the current rate, not from zero — the paper's
  // from-zero ramp is for connection start, where there is no rate yet.
  const int cells_now = estimator_.active_cell_count(now);
  // Probe taps sit after the third estimator query so a replay can repeat
  // the exact fair_share -> available -> active_cells sequence at `now`.
  if (taps_.on_probe) taps_.on_probe(now);
  if (taps_.on_probe_values) taps_.on_probe_values(cf_phys, cp_phys, cells_now);
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
          cfg_.ramp_rtts * static_cast<double>(rtprop_est_)));
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
        static_cast<double>(cfg_.mss) * 8.0 / rate_bps * 1e6;
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
  double conf = monitor_->decode_success_rate(now);
  // Estimate freshness: a feed that stopped updating (blackout, stall) is
  // worth less the older it gets — full trust up to 50 ms of age, linear
  // decay to zero at 300 ms.
  const util::Time lu = estimator_.last_update();
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
