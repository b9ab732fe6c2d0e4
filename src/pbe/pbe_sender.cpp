#include "pbe/pbe_sender.h"

#include <algorithm>
#include <cmath>

#include "obs/obs.h"

namespace pbecc::pbe {

namespace {
// Bounds on a physically possible feedback rate: 10 kbps (below the
// client's own 1 Mbps floor with a wide margin) to 2.5 Gbps (beyond any
// LTE carrier aggregate). A corrupted feedback word decodes to a rate
// outside this range with overwhelming probability.
constexpr double kMinPlausibleBps = 1e4;
constexpr double kMaxPlausibleBps = 2.5e9;
}  // namespace

namespace {
// Hybrid mode implies the blend is live; everything else in the config is
// taken as given.
DegradationConfig degradation_config(const PbeSenderConfig& cfg) {
  DegradationConfig d = cfg.degradation;
  if (cfg.hybrid) d.blend.enabled = true;
  return d;
}
}  // namespace

PbeSender::PbeSender(PbeSenderConfig cfg)
    : cfg_(cfg), feedback_rate_(cfg.initial_rate),
      btlbw_filter_(cfg.btlbw_window), misreport_(cfg.misreport),
      degradation_(degradation_config(cfg)), delay_bwe_(cfg.bwe) {
  degradation_.set_transition_hook(
      [this](util::Time now, DegradationState from, DegradationState to) {
        on_degradation_switch(now, from, to);
      });
  degradation_.set_cross_check_hook(
      [](util::Time now, double phy_bps, double delay_bps, bool diverged) {
        static obs::Counter& flips =
            obs::counter("pbe.sender.cross_check_flips");
        flips.inc();
        obs::emit(obs::EventKind::kEstimatorCrossCheck, now, 0,
                  diverged ? 1u : 0u, 0, phy_bps, delay_bps);
      });
}

void PbeSender::decode_feedback(const net::AckSample& s) {
  if (s.pbe_rate_interval_us == 0) return;
  // Interval between two MSS-sized packets -> bits per second.
  const double interval_sec = static_cast<double>(s.pbe_rate_interval_us) / 1e6;
  const double rate = static_cast<double>(cfg_.mss) * 8.0 / interval_sec;

  // Plausibility screen: a corrupted word must not steer pacing. The word
  // is rejected (last good rate kept) and the plausibility EWMA dinged,
  // which drags the confidence score down under sustained corruption.
  const bool plausible = rate >= kMinPlausibleBps && rate <= kMaxPlausibleBps;
  misreport_.on_feedback_word(plausible);
  if (!plausible) {
    static obs::Counter& rejected =
        obs::counter("pbe.sender.implausible_feedback");
    rejected.inc();
    return;
  }
  feedback_rate_ = rate;

  const double conf = (static_cast<double>(s.pbe_confidence) / 255.0) *
                      misreport_.plausibility();
  degradation_.on_feedback(s.now, conf);
}

void PbeSender::on_ack(const net::AckSample& s) {
  decode_feedback(s);

  // Always-maintained estimates (paper §5: "The PBE-CC sender also updates
  // its estimated RTprop and BtlBw with every received ACK, so it can
  // immediately switch").
  if (s.rtt > 0 &&
      (s.rtt <= rtprop_ || s.now - rtprop_stamp_ > cfg_.rtprop_window)) {
    rtprop_ = s.rtt;
    rtprop_stamp_ = s.now;
  }
  if (s.delivery_rate > 0) btlbw_filter_.update(s.now, s.delivery_rate);
  if (cfg_.detect_misreports) misreport_.on_ack(s, feedback_rate_);

  // Always-on delay-gradient sidecar (DESIGN.md §13): kept warm on every
  // ACK so its estimate is current the instant the PHY feed goes suspect.
  delay_bwe_.on_ack(s);
  if (cfg_.hybrid) {
    // Capacity memory: the largest rate the path demonstrably carried
    // recently, from inputs a broken feedback loop cannot poison (the
    // same pair the fallback-BBR seed used).
    const double memory = std::max(misreport_.achieved_rate(s.now),
                                   btlbw_filter_.get(s.now, 0.0));
    degradation_.on_estimates(
        s.now, feedback_rate_, delay_bwe_.target_bps(),
        delay_bwe_.acked_bps(), memory,
        delay_bwe_.usage() == bwe::BandwidthUsage::kOverusing);
    // Claim re-seed (trust-but-verify): a confidently healthy,
    // non-diverged PHY claim above the sidecar's target lifts the sidecar
    // to the claim instead of making it re-climb at AIMD pace — without
    // this, a feed that flaps faster than the PRECISE recovery hold keeps
    // pacing authority on a sidecar that is always seconds behind. Gated
    // on dense ACKs so the very evidence that would refute a false claim
    // (an overuse cut, one RTT away) is actually flowing; under ACK
    // starvation the claim stays quarantined — and a recent overuse cut
    // (congestion evidence fresher than any claim) quarantines it too.
    const util::Time last_cut = delay_bwe_.aimd().last_decrease();
    const double seed_value = std::min(
        static_cast<double>(feedback_rate_),
        cfg_.reseed_evidence_ratio * std::max(memory, delay_bwe_.acked_bps()));
    if (degradation_.effective_confidence() >=
            degradation_.config().recover_above &&
        !degradation_.diverged() && delay_bwe_.acked_fresh() &&
        (last_cut < 0 || s.now - last_cut > cfg_.reseed_quarantine) &&
        static_cast<double>(s.rtt) <=
            cfg_.reseed_max_rtt_ratio * static_cast<double>(rtprop_) &&
        seed_value > delay_bwe_.target_bps()) {
      delay_bwe_.seed_target(seed_value);
    }
  }

  // Watchdog tick: even an ack with no feedback word advances the clock
  // (feedback age is what trips the timeout).
  degradation_.advance(s.now);

  // Internet-mode switching follows client feedback only while that
  // feedback is trusted; FALLBACK replaces the internet-mode BBR wholesale.
  if (degradation_.state() == DegradationState::kPrecise) {
    if (s.pbe_internet_bottleneck && !bbr_) enter_internet_mode(s.now);
    if (!s.pbe_internet_bottleneck && bbr_) leave_internet_mode(s.now);
  }

  if (fallback_bbr_) {
    fallback_bbr_->on_ack(s);
  } else if (bbr_) {
    bbr_->on_ack(s);
  }

  static obs::Gauge& pacing = obs::gauge("pbe.sender.pacing_bps");
  static obs::Gauge& cwnd = obs::gauge("pbe.sender.cwnd_bytes");
  static obs::Gauge& feedback = obs::gauge("pbe.sender.feedback_bps");
  static obs::Gauge& bwe_target = obs::gauge("bwe.target_bps");
  static obs::Gauge& bwe_acked = obs::gauge("bwe.acked_bps");
  static obs::Gauge& bwe_slope = obs::gauge("bwe.trendline_slope");
  static obs::Gauge& bwe_state = obs::gauge("bwe.overuse_state");
  static obs::Gauge& blend = obs::gauge("pbe.sender.blend_weight");
  pacing.set(pacing_rate(s.now));
  cwnd.set(cwnd_bytes(s.now));
  feedback.set(feedback_rate_);
  bwe_target.set(delay_bwe_.target_bps());
  bwe_acked.set(delay_bwe_.acked_bps());
  bwe_slope.set(delay_bwe_.trendline().slope());
  bwe_state.set(static_cast<double>(delay_bwe_.usage()));
  blend.set(degradation_.phy_weight());
}

void PbeSender::on_packet_sent(util::Time now, const net::Packet& pkt,
                               std::uint64_t bytes_in_flight) {
  // Under total feedback loss no acks arrive; sends are the only clock
  // the watchdog has (the flow's RTO keeps sends going).
  degradation_.advance(now);
  if (fallback_bbr_) fallback_bbr_->on_packet_sent(now, pkt, bytes_in_flight);
}

void PbeSender::on_loss(const net::LossSample& s) {
  if (fallback_bbr_) {
    fallback_bbr_->on_loss(s);
  } else if (bbr_) {
    bbr_->on_loss(s);
  }
}

void PbeSender::on_degradation_switch(util::Time now, DegradationState from,
                                      DegradationState to) {
  if (cfg_.hybrid && to != DegradationState::kPrecise &&
      from == DegradationState::kPrecise) {
    // The PHY feed just went suspect and pacing authority is sliding to
    // the sidecar. Jump-start it from server-side capacity memory — the
    // recent BtlBw maximum and the misreport detector's achieved rate,
    // the same poison-free inputs the non-hybrid fallback BBR is seeded
    // from — so it does not have to re-climb from the pre-fault acked
    // level. Overuse evidence cuts a stale seed within an RTT or two.
    const double memory = std::max(misreport_.achieved_rate(now),
                                   btlbw_filter_.get(now, 0.0));
    if (memory > 0) delay_bwe_.seed_target(memory);
  }
  if (to == DegradationState::kDegraded) {
    // Capture the hold-and-decay anchor: the last trusted rate, already
    // clamped by the misreport cap so a flagged liar cannot launder an
    // inflated rate through the degradation path.
    hold_rate_ = feedback_rate_;
    if (cfg_.detect_misreports) {
      hold_rate_ = std::min(hold_rate_, misreport_.rate_cap(now));
    }
    hold_since_ = now;
  } else if (to == DegradationState::kFallback) {
    if (bbr_) leave_internet_mode(now);
    if (!cfg_.hybrid) {
      // Cliff-edge fallback: a fresh BBR that has to relearn the path. The
      // hybrid replaces this with the blend — by the time FALLBACK is
      // reached the weight has drained to the delay-gradient sidecar,
      // which tracked the path all along.
      baselines::BbrConfig bc;
      bc.mss = cfg_.mss;
      bc.seed = cfg_.seed + 1;
      fallback_bbr_ = std::make_unique<baselines::Bbr>(bc);
      // Seed from the server-side achieved-rate estimate — the one input a
      // broken (or lying) feedback loop cannot poison.
      fallback_bbr_->seed_estimates(
          now, std::max(misreport_.achieved_rate(now), 1e6), rtprop_);
    }
  }
  if (from == DegradationState::kFallback) fallback_bbr_.reset();

  static obs::Counter& switches =
      obs::counter("pbe.sender.degradation_switches");
  static obs::Gauge& state_gauge = obs::gauge("pbe.sender.degradation_state");
  switches.inc();
  state_gauge.set(static_cast<double>(to));
  obs::emit(obs::EventKind::kDegradationSwitch, now, 0,
            static_cast<std::uint32_t>(from), static_cast<std::int64_t>(to));
}

void PbeSender::enter_internet_mode(util::Time now) {
  baselines::BbrConfig bc;
  bc.mss = cfg_.mss;
  bc.enter_probe_bw_directly = true;  // entry drain at 0.5 BtlBw, then probe
  bc.probe_cap = [this] { return feedback_rate_; };  // Cprobe cap = Cf (Eqn 7)
  // Strictly less aggressive than stock BBR (paper §4.3): a tight window
  // leaves no standing queue, so once the bottleneck queue drains the
  // one-way delay falls below Dth and the client can switch back.
  bc.cwnd_gain = 1.2;
  bc.btlbw_window = util::kSecond;
  bc.seed = cfg_.seed;
  bbr_ = std::make_unique<baselines::Bbr>(bc);
  // Seed conservatively: the pre-switch BtlBw maximum usually reflects the
  // capacity that just vanished; the client's Cf feedback bounds what the
  // path can currently carry.
  const util::RateBps measured = btlbw_filter_.get(now, feedback_rate_);
  bbr_->seed_estimates(now, std::min(measured, feedback_rate_), rtprop_);
  note_mode_switch(now, /*internet=*/true);
}

void PbeSender::leave_internet_mode(util::Time now) {
  bbr_.reset();
  note_mode_switch(now, /*internet=*/false);
}

void PbeSender::note_mode_switch(util::Time now, bool internet) {
  static obs::Counter& switches = obs::counter("pbe.sender.mode_switches");
  switches.inc();
  obs::emit(obs::EventKind::kSenderModeSwitch, now, 0, 0, internet ? 1 : 0);
}

util::RateBps PbeSender::phy_rate(util::Time now) const {
  util::RateBps rate = feedback_rate_;
  const DegradationState st = degradation_.state();
  if (st == DegradationState::kDegraded ||
      (cfg_.hybrid && st == DegradationState::kFallback)) {
    // Hold-and-decay: pace at the last trusted rate, halved every
    // hold_half_life, so a stale estimate cannot overdrive a link whose
    // true capacity may have collapsed with the feed. (In hybrid mode the
    // decay also covers FALLBACK — there is no fallback BBR, and whatever
    // residual weight the PHY side still holds must keep shrinking.)
    const double halves =
        util::to_seconds(now - hold_since_) /
        util::to_seconds(degradation_.config().hold_half_life);
    rate = hold_rate_ * std::exp2(-halves);
  }
  if (cfg_.detect_misreports) {
    rate = std::min(rate, misreport_.rate_cap(now));
  }
  return rate;
}

util::RateBps PbeSender::pacing_rate(util::Time now) const {
  if (fallback_bbr_) return fallback_bbr_->pacing_rate(now);
  if (bbr_) return bbr_->pacing_rate(now);
  const util::RateBps phy = phy_rate(now);
  util::RateBps rate = phy;
  if (cfg_.hybrid) {
    // Confidence-weighted blend (DESIGN.md §13). At weight 1 — any clean
    // run — this is bit-identical to pure PBE; as confidence drains the
    // pacing authority slides continuously onto the delay-gradient target
    // instead of falling off the hold/fallback cliff.
    const double w = degradation_.phy_weight();
    rate = w * phy + (1.0 - w) * delay_bwe_.target_bps();
    // Memory-gated floor: while server-side capacity memory contradicts
    // the PHY term actually being blended (path recently delivered >
    // memory_ratio x it), that term may not throttle pacing below the
    // evidence-backed delay target regardless of the committed weight.
    // This covers both a floor/stale report at high weight (a convex
    // blend alone would pin pacing near zero for a hold window) and the
    // recovery gap where confidence has returned but the state machine is
    // still decaying the held rate. If instead the low rate is real,
    // pacing at the delay target builds a queue and the AIMD cuts that
    // target within an RTT or two — bounded, self-correcting risk.
    // Honest feeds never see the floor: clean-run delivery memory stays
    // well inside memory_ratio x the reported rate.
    const double memory = std::max(misreport_.achieved_rate(now),
                                   btlbw_filter_.get(now, 0.0));
    if (memory > degradation_.config().blend.memory_ratio * phy) {
      rate = std::max(rate, static_cast<double>(delay_bwe_.target_bps()));
    }
  }
  return std::max(rate, 1e5);
}

double PbeSender::cwnd_bytes(util::Time now) const {
  if (fallback_bbr_) return fallback_bbr_->cwnd_bytes(now);
  if (bbr_) return bbr_->cwnd_bytes(now);
  // Inflight cap: cwnd_gain * BDP(feedback rate, RTprop) — §4's "limits the
  // amount of inflight data to the bandwidth-delay product".
  const double bdp_bytes = pacing_rate(now) / util::kBitsPerByte *
                           util::to_seconds(rtprop_);
  return std::max(cfg_.cwnd_gain * bdp_bytes, 4.0 * cfg_.mss);
}

}  // namespace pbecc::pbe
