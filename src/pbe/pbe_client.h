// The PBE-CC mobile client (paper §4, §5, Fig 4): the module running on
// the phone (here: beside the flow receiver) that
//   * feeds the decoder monitor's per-subframe observations into the
//     capacity estimator,
//   * tracks one-way delay and the bottleneck state,
//   * runs the connection-start fair-share ramp (§4.1) and restarts it
//     when a new component carrier is activated,
//   * stamps each ACK with the 32-bit rate-interval feedback word and the
//     bottleneck-state bit (§5).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "decoder/monitor.h"
#include "net/packet.h"
#include "pbe/capacity_estimator.h"
#include "pbe/delay_monitor.h"
#include "pbe/rate_translator.h"
#include "phy/channel.h"
#include "util/time.h"

namespace pbecc::pbe {

struct PbeClientConfig {
  phy::Rnti rnti = 0;
  std::vector<phy::CellConfig> cells;  // the UE's aggregated cells
  std::int32_t mss = net::kDefaultMss;
  DelayMonitorConfig delay{};
  decoder::UserTrackerConfig tracker{};
  // Linear rate increase spans this many RTprop (paper: three RTTs).
  double ramp_rtts = 3.0;
  // Fraction of the fair share the receive rate must reach to declare the
  // ramp complete / the wireless link re-bottlenecked.
  double rate_attained_fraction = 0.9;
  std::uint64_t seed = 21;
  // Optional fault injector threaded down into the decoder monitor
  // (unowned; must outlive the client). nullptr = fault-free.
  const fault::FaultInjector* faults = nullptr;
};

// Optional observation hooks into the client's measurement pipeline, used
// by pbecc::cap to record traces and fidelity digests. Plain std::function
// bundles keep this module free of any capture dependency; unset hooks
// cost one branch. The hooks fire in pipeline order: on_batch before the
// monitor decodes, on_observations as fused observations reach the
// estimator, on_window_set when an RTprop update resizes the averaging
// windows, on_probe/on_probe_values around each ACK's estimator queries.
struct ClientTaps {
  // One PDCCH tick, already filtered to monitored cells; control_ber[i]
  // and bits_per_prb[i] are the pipeline inputs applied to sfs[i].
  std::function<void(const std::vector<phy::PdcchSubframe>&,
                     const std::vector<double>& control_ber,
                     const std::vector<double>& bits_per_prb)>
      on_batch;
  std::function<void(util::Time, util::Duration window)> on_window_set;
  std::function<void(util::Time)> on_probe;
  std::function<void(const std::vector<decoder::CellObservation>&)>
      on_observations;
  std::function<void(double cf_bits_sf, double cp_bits_sf, int active_cells)>
      on_probe_values;
  // Fires after the monitor has decoded a batch that contained at least
  // one monitored cell — the same condition under which a capture writes a
  // batch record, so a replay can fire its mirror hook at identical points
  // (tel::PipelineSampler keys its cadence off this).
  std::function<void(std::int64_t sf_index)> on_batch_end;
};

class PbeClient {
 public:
  enum class State { kStartup, kWireless, kInternet };

  // `channel_query` is the modem API: the phone's own channel state on a
  // given cell (CQI -> Rw hint, residual BER for Eqn 5).
  using ChannelQuery = std::function<phy::ChannelState(phy::CellId)>;

  PbeClient(PbeClientConfig cfg, ChannelQuery channel_query);

  // Wire to BaseStation::add_pdcch_observer.
  void on_pdcch(const phy::PdcchSubframe& sf);
  // Wire to BaseStation::add_pdcch_batch_observer: all cells of one tick
  // at once, decoded in turn on the calling thread.
  void on_pdcch_batch(const std::vector<phy::PdcchSubframe>& sfs);

  // Wire to FlowReceiver::set_feedback_filler.
  void fill_feedback(const net::Packet& pkt, util::Time now, net::Ack& ack);

  // Install capture/digest hooks (pbecc::cap). Call before traffic starts.
  void set_taps(ClientTaps taps) { taps_ = std::move(taps); }

  State state() const { return state_; }
  util::Duration rtprop_estimate() const { return rtprop_est_; }
  double last_feedback_bps() const { return last_feedback_bps_; }
  const CapacityEstimator& estimator() const { return estimator_; }
  const DelayMonitor& delay_monitor() const { return delay_; }
  const decoder::Monitor& monitor() const { return *monitor_; }

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
  ClientTaps taps_;
  CapacityEstimator estimator_;
  RateTranslator translator_;
  DelayMonitor delay_;
  std::unique_ptr<decoder::Monitor> monitor_;

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
