// The PBE-CC mobile client (paper §4, §5, Fig 4): the module running on
// the phone (here: beside the flow receiver) that
//   * runs the measurement pipeline (decoder monitor -> capacity
//     estimator) on its modem's per-cell channel state,
//   * tracks one-way delay and the bottleneck state,
//   * runs the connection-start fair-share ramp (§4.1) and restarts it
//     when a new component carrier is activated,
//   * stamps each ACK with the 32-bit rate-interval feedback word and the
//     bottleneck-state bit (§5).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "pbe/capacity_estimator.h"
#include "pbe/delay_monitor.h"
#include "pbe/measurement_pipeline.h"
#include "pbe/rate_translator.h"
#include "phy/channel.h"
#include "util/time.h"

namespace pbecc::pbe {

class PbeClient {
 public:
  enum class State { kStartup, kWireless, kInternet };

  // `channel_query` is the modem API: the phone's own channel state on a
  // given cell (CQI -> Rw hint, residual BER for Eqn 5).
  using ChannelQuery = std::function<phy::ChannelState(phy::CellId)>;

  PbeClient(PbeClientConfig cfg, ChannelQuery channel_query);

  // Wire to BaseStation::add_pdcch_batch_observer: all cells of one tick
  // at once, decoded in turn on the calling thread.
  void on_pdcch_batch(const std::vector<phy::PdcchSubframe>& sfs) {
    pipeline_.on_pdcch_batch(sfs);
  }

  // Wire to FlowReceiver::set_feedback_filler.
  void fill_feedback(const net::Packet& pkt, util::Time now, net::Ack& ack);

  // Install capture/digest hooks (pbecc::cap). Call before traffic starts.
  void set_taps(ClientTaps taps) { pipeline_.taps() = std::move(taps); }

  State state() const { return state_; }
  util::Duration rtprop_estimate() const { return rtprop_est_; }
  double last_feedback_bps() const { return last_feedback_bps_; }
  const CapacityEstimator& estimator() const { return pipeline_.estimator(); }
  const DelayMonitor& delay_monitor() const { return delay_; }
  const decoder::Monitor& monitor() const { return pipeline_.monitor(); }

  // Fraction of packets handled while in the Internet-bottleneck state
  // (the paper's §6.3.1 "alternation between states" statistic).
  double internet_state_fraction() const;

  // How much the sender should trust this client's feedback right now, in
  // [0, 1]: monitor decode-success rate times capacity-estimate freshness.
  // Stamped into every ACK (Ack::pbe_confidence) and consumed by the
  // sender's degradation machine.
  double confidence(util::Time now) const;

 private:
  double current_p() const;  // residual BER across active cells
  double recv_rate_bps(util::Time now);
  void update_state(util::Time now, double cf_bps);

  PbeClientConfig cfg_;
  ChannelQuery channel_;
  MeasurementPipeline pipeline_;
  RateTranslator translator_;
  DelayMonitor delay_;

  State state_ = State::kStartup;
  util::Time ramp_start_ = -1;
  double ramp_base_bps_ = 0;  // re-ramps start from the current rate
  int last_cell_count_ = 1;
  util::Time last_cell_increase_ = -(1LL << 60);
  util::Time below_share_since_ = util::kNever;
  util::Duration rtprop_est_ = 60 * util::kMillisecond;

  // Receive-rate measurement over ~2 RTprop.
  std::deque<std::pair<util::Time, std::int32_t>> recv_window_;
  std::int64_t recv_window_bytes_ = 0;

  double last_ct_bits_sf_ = 0;
  double last_feedback_bps_ = 0;
  std::uint64_t pkts_total_ = 0;
  std::uint64_t pkts_internet_ = 0;
};

}  // namespace pbecc::pbe
