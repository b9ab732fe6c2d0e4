// PCC Allegro (Dong et al., NSDI 2015) and PCC Vivace (Dong et al., NSDI
// 2018): rate-based online-learning controllers that run micro-experiments
// over monitor intervals (MIs) and move the rate in the direction of higher
// empirical utility.
//
//  * Allegro: randomized 2x2 trials at rate*(1 +/- eps); loss-based
//    sigmoid utility.
//  * Vivace: gradient ascent on u = x^0.9 - b*x*(dRTT/dt) - c*x*L, with a
//    confidence-amplified step.
//
// On cellular links the utility signal is noisy (scheduler granting,
// HARQ delay spikes), and both algorithms converge to conservative rates —
// matching the paper's observation (§2, §6.3) that online learning
// "frequently converges to solutions that result in significant network
// under-utilization".
#pragma once

#include <array>
#include <optional>

#include "net/congestion_controller.h"
#include "util/rng.h"

namespace pbecc::baselines {

// Per-monitor-interval statistics shared by both PCC variants.
class MonitorIntervals {
 public:
  struct MiResult {
    double throughput_bps = 0;
    double loss_rate = 0;
    double avg_rtt_ms = 0;
    // Within-interval RTT slope (ms of RTT change per ms of time), the
    // d(RTT)/dt term of Vivace's utility, from a least-squares fit over
    // the MI's per-packet RTTs (as in the NSDI'18 implementation —
    // endpoint differences would be hypersensitive to single HARQ
    // retransmission spikes).
    double rtt_slope = 0;
    util::Duration duration = 0;
  };

  void on_ack(const net::AckSample& s);
  void on_loss(const net::LossSample& s);

  // Returns a finished MI once `mi_len` has elapsed, else nullopt.
  std::optional<MiResult> poll(util::Time now, util::Duration mi_len);

  util::Duration srtt() const { return srtt_; }

 private:
  util::Time mi_start_ = 0;
  double acked_bytes_ = 0;
  double lost_bytes_ = 0;
  double rtt_sum_ms_ = 0;
  std::uint64_t rtt_count_ = 0;
  // Regression accumulators for the within-MI RTT slope: x is time since
  // MI start (ms), y is RTT (ms).
  double sx_ = 0, sy_ = 0, sxx_ = 0, sxy_ = 0;
  util::Duration srtt_ = 100 * util::kMillisecond;
};

// Pacing-rate range of both PCC variants.
inline constexpr util::RateBps kPccMinRate = 2e5;
inline constexpr util::RateBps kPccMaxRate = 500e6;

struct PccConfig {
  util::RateBps initial_rate = 2e6;
  std::uint64_t seed = 17;
};

class PccAllegro : public net::CongestionController {
 public:
  explicit PccAllegro(PccConfig cfg = {});

  void on_ack(const net::AckSample& s) override;
  void on_loss(const net::LossSample& s) override;
  util::RateBps pacing_rate(util::Time now) const override;
  std::string name() const override { return "pcc"; }

 private:
  enum class Mode { kStarting, kDecision };
  static double utility(const MonitorIntervals::MiResult& mi);
  void on_mi(const MonitorIntervals::MiResult& mi, util::Time now);

  MonitorIntervals mi_;
  Mode mode_ = Mode::kStarting;
  util::RateBps rate_;
  double prev_utility_ = -1e18;
  // Decision state: 4 trials, direction +,-,+,- in randomized pairing.
  int trial_index_ = 0;
  std::array<double, 4> trial_utility_{};
  std::array<int, 4> trial_sign_{};
  double eps_ = 0.01;
  util::Rng rng_;
};

class PccVivace : public net::CongestionController {
 public:
  explicit PccVivace(PccConfig cfg = {});

  void on_ack(const net::AckSample& s) override;
  void on_loss(const net::LossSample& s) override;
  util::RateBps pacing_rate(util::Time now) const override;
  std::string name() const override { return "vivace"; }

 private:
  static double utility(const MonitorIntervals::MiResult& mi);
  void on_mi(const MonitorIntervals::MiResult& mi, util::Time now);

  MonitorIntervals mi_;
  util::RateBps rate_;
  int trial_index_ = 0;          // 0: +eps MI, 1: -eps MI
  double trial_utility_[2] = {0, 0};
  double confidence_ = 1.0;
  double last_gradient_sign_ = 0;
};

}  // namespace pbecc::baselines
