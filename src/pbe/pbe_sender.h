// The PBE-CC sender (paper §4, §5): a rate-based congestion controller
// that normally paces at exactly the capacity the mobile client feeds back
// (precise congestion control), limits in-flight data to the
// bandwidth-delay product so delayed feedback cannot overfill the pipe,
// and switches to the cellular-tailored BBR (probing capped at the
// wireless fair share, Eqn 7) whenever the client's ACKs flag an
// Internet bottleneck.
//
// Robustness (DESIGN.md §8): a DegradationMachine watches the confidence
// each ACK carries (client decode health x estimate freshness x feedback
// plausibility) and the feedback age. While PRECISE the sender behaves as
// above; DEGRADED holds the last good rate and decays it exponentially;
// FALLBACK abandons physical-layer feedback entirely and runs a plain BBR
// until the feed proves healthy again.
#pragma once

#include <memory>

#include "baselines/bbr.h"
#include "bwe/delay_bwe.h"
#include "net/congestion_controller.h"
#include "pbe/degradation.h"
#include "pbe/misreport_detector.h"
#include "util/windowed_filter.h"

namespace pbecc::pbe {

struct PbeSenderConfig {
  // Display name: the same sender logic also serves the ABC-style
  // explicit-network-feedback oracle (rates stamped by the base station
  // instead of the PBE client).
  std::string name = "pbe";
  // Headroom on the BDP-based congestion window; >1 tolerates HARQ delay
  // jitter without starving the paced rate, while still bounding the queue
  // that can form before feedback reacts (paper §4: inflight limited to
  // the BDP).
  double cwnd_gain = 1.5;
  // §7 defense: cross-check the client's reported capacity against a
  // server-side throughput estimate and cap flows that misreport.
  bool detect_misreports = true;
  // Hybrid PBE x delay estimation (DESIGN.md §13): blend the PHY capacity
  // with the delay-gradient sidecar's target by the degradation machine's
  // confidence weight, instead of the cliff-edge hold/fallback path. The
  // sidecar itself runs regardless (it must be warm the moment the PHY
  // feed goes suspect); `hybrid` only controls whether it holds pacing
  // authority.
  bool hybrid = false;
  std::uint64_t seed = 5;
};

class PbeSender : public net::CongestionController {
 public:
  explicit PbeSender(PbeSenderConfig cfg = {});

  void on_packet_sent(util::Time now, const net::Packet& pkt,
                      std::uint64_t bytes_in_flight) override;
  void on_ack(const net::AckSample& s) override;
  void on_loss(const net::LossSample& s) override;

  util::RateBps pacing_rate(util::Time now) const override;
  double cwnd_bytes(util::Time now) const override;
  std::string name() const override { return cfg_.name; }

  bool in_internet_mode() const { return bbr_ != nullptr; }
  util::Duration rtprop() const { return rtprop_; }
  util::RateBps feedback_rate() const { return feedback_rate_; }
  const MisreportDetector& misreport_detector() const { return misreport_; }
  DegradationState degradation_state() const { return degradation_.state(); }
  const DegradationMachine& degradation() const { return degradation_; }
  bool hybrid() const { return cfg_.hybrid; }
  // The always-on delay-gradient sidecar.
  const bwe::DelayBasedBwe& delay_bwe() const { return delay_bwe_; }
  // Share of pacing authority the PHY estimate currently holds (1.0 when
  // not hybrid).
  double blend_weight() const { return degradation_.phy_weight(); }

 private:
  void decode_feedback(const net::AckSample& s);
  // The PHY half of the blend: feedback rate with DEGRADED/FALLBACK
  // hold-and-decay and the misreport cap applied.
  util::RateBps phy_rate(util::Time now) const;
  void on_degradation_switch(util::Time now, DegradationState from,
                             DegradationState to);
  void enter_internet_mode(util::Time now);
  void leave_internet_mode(util::Time now);
  void note_mode_switch(util::Time now, bool internet);

  PbeSenderConfig cfg_;
  util::RateBps feedback_rate_;
  util::Duration rtprop_ = 100 * util::kMillisecond;
  util::Time rtprop_stamp_ = 0;
  mutable util::WindowedMax<double> btlbw_filter_;

  // Present only while the client reports an Internet bottleneck.
  std::unique_ptr<baselines::Bbr> bbr_;
  MisreportDetector misreport_;

  // Graceful degradation of the feedback loop.
  DegradationMachine degradation_;
  // Delay-gradient sidecar: fed every ACK so the endpoint-only estimate is
  // always current; holds pacing authority only in hybrid mode.
  bwe::DelayBasedBwe delay_bwe_;
  // Present only in FALLBACK: a plain BBR that ignores PBE feedback.
  std::unique_ptr<baselines::Bbr> fallback_bbr_;
  // DEGRADED hold-and-decay anchor: the last trusted rate and when it was
  // captured.
  util::RateBps hold_rate_ = 0;
  util::Time hold_since_ = 0;
};

}  // namespace pbecc::pbe
