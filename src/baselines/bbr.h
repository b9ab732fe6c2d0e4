// TCP BBR v1 (Cardwell et al., ACM Queue 2016) as a rate-based controller.
//
// Faithful to the published state machine: STARTUP (2.89x gain until the
// bottleneck bandwidth estimate plateaus over three rounds), DRAIN,
// PROBE_BW (the eight-phase [1.25, 0.75, 1 x6] gain cycle of paper Fig 9),
// and PROBE_RTT (cwnd of 4 segments for 200 ms every 10 s). BtlBw is a
// windowed max of delivery-rate samples; RTprop a windowed min of RTTs.
//
// PBE-CC's cellular-tailored BBR (paper §4.2.3) is this class with two
// extensions, both exposed here: a cap on the probing rate
// (Cprobe = min{1.25 BtlBw, Cf}) and an entry path that starts directly in
// PROBE_BW after a one-RTprop drain at 0.5 BtlBw.
#pragma once

#include <functional>

#include "net/congestion_controller.h"
#include "util/rng.h"
#include "util/windowed_filter.h"

namespace pbecc::baselines {

struct BbrConfig {
  double cwnd_gain = 2.0;
  // BtlBw max-filter window; BBR uses 10 round trips, we use time-based.
  util::Duration btlbw_window = 2 * util::kSecond;
  std::uint64_t seed = 3;

  // --- PBE-CC extensions (inactive by default) ---
  // When set, PROBE_BW pacing is capped at probe_cap() — the wireless
  // link's fair share Cf. The probing phase becomes
  // Cprobe = min(1.25 * BtlBw, Cf) (paper Eqn 7); the cap may bind below
  // BtlBw (e.g. when the BtlBw filter is transiently inflated by a burst
  // drained from the base-station queue), which is exactly what keeps the
  // cellular-tailored BBR from pacing above its wireless share.
  std::function<util::RateBps()> probe_cap;
  // Skip STARTUP: begin with a one-RTprop drain at 0.5 BtlBw, then enter
  // PROBE_BW (paper §4.2.3 entry sequence).
  bool enter_probe_bw_directly = false;
};

class Bbr : public net::CongestionController {
 public:
  enum class Mode { kStartup, kDrain, kProbeBw, kProbeRtt, kEntryDrain };

  explicit Bbr(BbrConfig cfg = {});

  void on_packet_sent(util::Time now, const net::Packet& pkt,
                      std::uint64_t bytes_in_flight) override;
  void on_ack(const net::AckSample& s) override;
  void on_loss(const net::LossSample& s) override;

  util::RateBps pacing_rate(util::Time now) const override;
  double cwnd_bytes(util::Time now) const override;
  std::string name() const override { return "bbr"; }

  // Introspection for tests and for the PBE sender.
  Mode mode() const { return mode_; }
  util::RateBps btl_bw(util::Time now) const;
  util::Duration rtprop() const { return rtprop_; }

  // Used by the PBE sender when re-entering internet-bottleneck mode with
  // fresh estimates already in hand.
  void seed_estimates(util::Time now, util::RateBps btlbw, util::Duration rtprop);

 private:
  void advance_cycle(util::Time now);
  void check_full_pipe();
  void maybe_enter_probe_rtt(util::Time now, bool rtprop_expired);
  double bdp_bytes(util::Time now, double gain) const;

  BbrConfig cfg_;
  Mode mode_;
  mutable util::WindowedMax<double> btlbw_filter_;
  util::Duration rtprop_;
  util::Time rtprop_stamp_ = 0;

  // PROBE_BW cycle.
  int cycle_index_ = 0;
  util::Time cycle_start_ = 0;

  // STARTUP full-pipe detection.
  double full_bw_ = 0;
  int full_bw_count_ = 0;
  bool filled_pipe_ = false;

  // Round counting.
  std::uint64_t next_round_delivered_ = 0;
  std::uint64_t last_sent_bytes_total_ = 0;
  bool round_start_ = false;

  // PROBE_RTT.
  util::Time probe_rtt_done_ = 0;
  util::Time last_probe_rtt_ = 0;

  std::uint64_t bytes_in_flight_ = 0;
  util::Rng rng_;
};

}  // namespace pbecc::baselines
