// pbecc::bwe unit tests: the delay-gradient estimator that backs both the
// "gcc" baseline and the hybrid PBE sender's sidecar (DESIGN.md §13).
//
//   * TrendlineEstimator on canned inter-arrival patterns — capacity step
//     (queue growth), queue drain, bounded jitter — with convergence
//     bounds on how fast each verdict must land;
//   * AimdRateControl state behaviour: cut basis, hold, clamp, seed,
//     startup grace;
//   * DelayBasedBwe closed-loop convergence against a toy bottleneck;
//   * the 10M-update float-drift regression (DESIGN.md §10 discipline):
//     the trendline's fitted slope must stay within 1e-9 of a brute-force
//     mirror fit after ten million updates of epoch re-anchoring;
//   * DegradationMachine blend-weight hysteresis: bounded confidence noise
//     commits at most one weight move per hold window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <vector>

#include "bwe/delay_bwe.h"
#include "pbe/degradation.h"

namespace pbecc::bwe {
namespace {

constexpr util::Time kMs = util::kMillisecond;

// Feed `n` samples at a fixed 5 ms cadence with per-sample delay from `fn`.
template <typename Fn>
util::Time drive(TrendlineEstimator& tr, util::Time start, int n, Fn fn) {
  util::Time t = start;
  for (int i = 0; i < n; ++i, t += 5 * kMs) tr.update(t, fn(i));
  return t;
}

// --- trendline: canned patterns ------------------------------------------

TEST(Trendline, FlatDelayStaysNormal) {
  TrendlineEstimator tr;
  drive(tr, 0, 200, [](int) { return 30.0; });
  EXPECT_EQ(tr.state(), BandwidthUsage::kNormal);
  EXPECT_NEAR(tr.slope(), 0.0, 1e-12);
}

// Capacity step down: delay starts growing ~2 ms per sample (a queue
// building at a saturated bottleneck). The verdict must land within 40
// samples of the onset — 200 ms at this cadence, fast enough that the
// AIMD cuts before the queue doubles the base RTT.
TEST(Trendline, SustainedQueueGrowthIsOveruseWithinBound) {
  TrendlineEstimator tr;
  util::Time t = drive(tr, 0, 60, [](int) { return 30.0; });  // settle
  ASSERT_EQ(tr.state(), BandwidthUsage::kNormal);
  int verdict_at = -1;
  for (int i = 0; i < 80; ++i, t += 5 * kMs) {
    tr.update(t, 30.0 + 2.0 * i);
    if (tr.state() == BandwidthUsage::kOverusing) {
      verdict_at = i;
      break;
    }
  }
  ASSERT_GE(verdict_at, 0) << "never declared overuse";
  EXPECT_LE(verdict_at, 40);
  EXPECT_GT(tr.slope(), 0.0);
}

// Queue drain: delay falling back down reads as underuse (the AIMD holds,
// letting the queue empty instead of re-filling it).
TEST(Trendline, QueueDrainIsUnderuse) {
  TrendlineEstimator tr;
  util::Time t = drive(tr, 0, 60, [](int) { return 130.0; });
  int verdict_at = -1;
  for (int i = 0; i < 80; ++i, t += 5 * kMs) {
    tr.update(t, std::max(30.0, 130.0 - 2.0 * i));
    if (tr.state() == BandwidthUsage::kUnderusing) {
      verdict_at = i;
      break;
    }
  }
  ASSERT_GE(verdict_at, 0) << "never declared underuse";
  EXPECT_LE(verdict_at, 40);
}

// Bounded jitter (deterministic ±3 ms square wave) must not trip overuse:
// the EWMA plus the adaptive threshold absorb zero-mean noise.
TEST(Trendline, BoundedJitterStaysNormal) {
  TrendlineEstimator tr;
  drive(tr, 0, 400, [](int i) { return 30.0 + ((i % 2 == 0) ? 3.0 : -3.0); });
  EXPECT_EQ(tr.state(), BandwidthUsage::kNormal);
}

// The detector must not act on a window still filling: even a steep ramp
// reads kNormal until kTrendlineWindow points have arrived.
TEST(Trendline, NoVerdictBeforeWindowFills) {
  TrendlineEstimator tr;
  util::Time t = 0;
  for (std::size_t i = 0; i + 1 < kTrendlineWindow; ++i, t += 5 * kMs) {
    tr.update(t, 30.0 + 5.0 * static_cast<double>(i));
    EXPECT_EQ(tr.state(), BandwidthUsage::kNormal) << "point " << i;
  }
}

// The threshold adapts toward |trend|: a sustained in-band excursion pulls
// it up (the link's own noise widens the deadband), a quiet link pulls it
// down to the floor — and reset() must not clear it either way: the noise
// floor survives a feed gap.
TEST(Trendline, ThresholdAdaptsAndSurvivesReset) {
  TrendlineEstimator tr;
  const double initial = tr.threshold_ms();
  // Sustained 0.25 ms/ms ramp: modified trend ~20 ms, above the initial
  // threshold but inside the +15 ms outlier cutoff, so kUp applies.
  drive(tr, 0, 300, [](int i) { return 30.0 + 1.25 * i; });
  EXPECT_GT(tr.threshold_ms(), initial);
  const double adapted = tr.threshold_ms();
  tr.reset();
  EXPECT_EQ(tr.threshold_ms(), adapted);
  EXPECT_EQ(tr.num_points(), 0u);
  EXPECT_EQ(tr.state(), BandwidthUsage::kNormal);

  // Flat delay from here: the threshold decays toward its floor.
  TrendlineEstimator quiet;
  drive(quiet, 0, 600, [](int) { return 30.0; });
  EXPECT_LT(quiet.threshold_ms(), initial);
}

// --- trendline: 10M-update float-drift regression ------------------------

// Brute-force mirror: absolute arrival times, its own EWMA (same formula,
// same order of operations), and a least-squares fit recomputed from
// scratch with times relative to the window head. The estimator re-anchors
// its epoch on every expiry (ten million subtract-and-store cycles); this
// test is the regression net that all that re-anchoring leaves the fitted
// slope within 1e-9 of the exact fit.
struct MirrorFit {
  std::deque<double> t_ms, d_ms;
  double smoothed = 0.0;
  bool have = false;

  void update(double t_abs_ms, double delay_ms, std::size_t window) {
    smoothed = have ? 0.9 * smoothed + 0.1 * delay_ms : delay_ms;
    have = true;
    t_ms.push_back(t_abs_ms);
    d_ms.push_back(smoothed);
    if (t_ms.size() > window) {
      t_ms.pop_front();
      d_ms.pop_front();
    }
  }

  double slope() const {
    const std::size_t n = t_ms.size();
    if (n < 2) return 0.0;
    const double t0 = t_ms.front();
    double sum_t = 0.0, sum_d = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum_t += t_ms[i] - t0;
      sum_d += d_ms[i];
    }
    const double mt = sum_t / static_cast<double>(n);
    const double md = sum_d / static_cast<double>(n);
    double cov = 0.0, var = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      cov += (t_ms[i] - t0 - mt) * (d_ms[i] - md);
      var += (t_ms[i] - t0 - mt) * (t_ms[i] - t0 - mt);
    }
    return var > 0.0 ? cov / var : 0.0;
  }
};

TEST(TrendlineDrift, TenMillionUpdatesStayWithin1e9OfBruteForce) {
  TrendlineEstimator tr;
  MirrorFit mirror;

  constexpr int kUpdates = 10'000'000;
  constexpr int kCheckEvery = 100'000;
  util::Time t = 0;
  double max_err = 0.0;
  for (int i = 0; i < kUpdates; ++i) {
    // Deterministic non-trivial signal: slow delay swell + fast ripple,
    // non-uniform cadence. No RNG — the stream must be reproducible.
    const double delay =
        30.0 + 10.0 * ((i / 1000) % 7) + 2.0 * static_cast<double>(i % 5);
    t += (4 + i % 3) * kMs;
    tr.update(t, delay);
    mirror.update(static_cast<double>(t) / 1000.0, delay, kTrendlineWindow);
    if ((i + 1) % kCheckEvery == 0) {
      max_err = std::max(max_err, std::abs(tr.slope() - mirror.slope()));
    }
  }
  max_err = std::max(max_err, std::abs(tr.slope() - mirror.slope()));
  EXPECT_LT(max_err, 1e-9) << "slope drifted from the brute-force fit";
}

// --- AIMD ----------------------------------------------------------------

// Grace is measured from the first update() call, so every test that wants
// steady-state behaviour burns it with one update and then jumps the clock.
util::Time past_grace(AimdRateControl& aimd) {
  aimd.update(0, BandwidthUsage::kNormal, 0.0, 40 * kMs);
  return kAimdStartupGrace + 100 * kMs;
}

TEST(Aimd, OveruseCutsToBetaTimesAcked) {
  AimdRateControl aimd(10e6);
  util::Time t = past_grace(aimd);
  aimd.update(t, BandwidthUsage::kNormal, 8e6, 40 * kMs);
  t += 100 * kMs;
  const double target =
      aimd.update(t, BandwidthUsage::kOverusing, 8e6, 40 * kMs);
  EXPECT_DOUBLE_EQ(target, kAimdBeta * 8e6);
  EXPECT_EQ(aimd.last_decrease(), t);
}

TEST(Aimd, CutsAreRateLimited) {
  AimdRateControl aimd(10e6);
  util::Time t = past_grace(aimd);
  aimd.update(t, BandwidthUsage::kOverusing, 8e6, 40 * kMs);
  const double after_first = aimd.target_bps();
  // A second verdict inside kAimdMinDecreaseInterval must not cut again.
  t += kAimdMinDecreaseInterval / 2;
  aimd.update(t, BandwidthUsage::kOverusing, 5e6, 40 * kMs);
  EXPECT_DOUBLE_EQ(aimd.target_bps(), after_first);
}

TEST(Aimd, UnderuseHoldsTheRate) {
  AimdRateControl aimd(10e6);
  util::Time t = past_grace(aimd);
  aimd.update(t, BandwidthUsage::kNormal, 9e6, 40 * kMs);
  const double before = aimd.target_bps();
  for (int i = 0; i < 20; ++i) {
    t += 20 * kMs;
    aimd.update(t, BandwidthUsage::kUnderusing, 9e6, 40 * kMs);
  }
  EXPECT_TRUE(aimd.holding());
  EXPECT_DOUBLE_EQ(aimd.target_bps(), before);
}

TEST(Aimd, IncreaseIsClampedToAckedMultiple) {
  AimdRateControl aimd(10e6);
  util::Time t = past_grace(aimd);
  // Many normal verdicts with delivery pinned at 8 Mbit/s: growth may not
  // outrun kAimdMaxVsAcked x acked.
  for (int i = 0; i < 200; ++i) {
    t += 20 * kMs;
    aimd.update(t, BandwidthUsage::kNormal, 8e6, 40 * kMs);
  }
  EXPECT_LE(aimd.target_bps(), kAimdMaxVsAcked * 8e6 * (1.0 + 1e-12));
}

TEST(Aimd, SeedSuspendsTheClampUntilEvidence) {
  AimdRateControl aimd(2e6);
  util::Time t = past_grace(aimd);
  aimd.update(t, BandwidthUsage::kNormal, 2e6, 40 * kMs);
  aimd.seed(20e6);
  EXPECT_DOUBLE_EQ(aimd.target_bps(), 20e6);
  // Next normal verdict with stale acked (2 Mbit/s): a live clamp would
  // snap the target back to 2.5 Mbit/s and the jump-start would be void.
  t += 20 * kMs;
  aimd.update(t, BandwidthUsage::kNormal, 2e6, 40 * kMs);
  EXPECT_GE(aimd.target_bps(), 20e6);
  // ...but an overuse verdict is evidence, and cuts it like any target.
  t += 200 * kMs;
  const double cut = aimd.update(t, BandwidthUsage::kOverusing, 3e6, 40 * kMs);
  EXPECT_DOUBLE_EQ(cut, kAimdBeta * 3e6);
}

TEST(Aimd, StartupGraceFloorsAtInitialRate) {
  AimdRateControl aimd(5e6);
  // Overuse on the very first verdicts (the startup-burst transient): the
  // target must not dig below the initial rate, and the capacity tracker
  // must not learn the bogus basis.
  util::Time t = 10 * kMs;
  for (int i = 0; i < 3; ++i) {
    t += kAimdMinDecreaseInterval + 10 * kMs;
    aimd.update(t, BandwidthUsage::kOverusing, 0.2e6, 40 * kMs);
  }
  EXPECT_GE(aimd.target_bps(), 5e6);
  EXPECT_FALSE(aimd.link_capacity().has_estimate());
}

// --- DelayBasedBwe: closed-loop convergence ------------------------------

// Toy bottleneck: serves `capacity` bps; pacing above it builds queue at
// the excess rate, below it drains. Delivery tracks min(target, capacity).
// Drives the full estimator (trendline -> AIMD -> sparse cap) through the
// ACK interface exactly as a flow driver would.
struct ToyLink {
  double capacity;
  double queue_ms = 0.0;

  net::AckSample ack(util::Time now, double paced_bps, double dt_s) {
    const double served = std::min(paced_bps, capacity);
    queue_ms += (paced_bps - capacity) / capacity * dt_s * 1e3;
    queue_ms = std::max(queue_ms, 0.0);
    net::AckSample s;
    s.now = now;
    s.one_way_delay =
        static_cast<util::Duration>((20.0 + queue_ms) * 1000.0);
    s.rtt = 2 * s.one_way_delay;
    s.delivery_rate = served;
    return s;
  }
};

double converge(DelayBasedBwe& bwe, ToyLink& link, util::Time from,
                util::Time until) {
  constexpr util::Time kDt = 5 * kMs;
  for (util::Time t = from; t < until; t += kDt) {
    bwe.on_ack(link.ack(t, bwe.target_bps(),
                        static_cast<double>(kDt) / 1e6));
  }
  return bwe.target_bps();
}

TEST(DelayBwe, ConvergesUpToCapacity) {
  DelayBasedBwe bwe;  // initial 2 Mbit/s
  ToyLink link{12e6};
  const double target = converge(bwe, link, 0, 6 * util::kSecond);
  // Converged into the AIMD's operating band around capacity: above the
  // post-cut floor (beta x capacity, minus margin), below the probing
  // ceiling (kAimdMaxVsAcked x capacity).
  EXPECT_GE(target, 0.8 * 12e6);
  EXPECT_LE(target, 1.3 * 12e6);
}

// Capacity step down. Two properties, each the regression net for a real
// failure mode:
//   * the target must re-converge near the new capacity. Before the
//     kMaxDecreaseInterval clamp this spiralled: the queue built by the
//     overshoot inflated the RTT (and with it the cut spacing) faster
//     than wall time passed, so no cut ever landed and the target stayed
//     at the old capacity while the queue grew at ~2 s of delay per
//     second of wall time;
//   * any residual queue creep must stay under the trendline's detection
//     floor. A gradient detector cannot see overshoot below
//     min_threshold / (gain x window) ~ 7.5% of capacity, so a small
//     standing-queue creep is inherent to this estimator class (the
//     hybrid's RTT-level re-seed gate exists because of exactly this) —
//     but it must be that floor, not a runaway.
TEST(DelayBwe, TracksACapacityDrop) {
  DelayBasedBwe bwe;
  ToyLink link{12e6};
  converge(bwe, link, 0, 6 * util::kSecond);
  link.capacity = 4e6;  // step down
  converge(bwe, link, 6 * util::kSecond, 9 * util::kSecond);  // settle
  const double queue_settled = link.queue_ms;
  const double target =
      converge(bwe, link, 9 * util::kSecond, 22 * util::kSecond);
  EXPECT_GE(target, 0.7 * 4e6);
  EXPECT_LE(target, 1.15 * 4e6);
  const double creep_ms_per_s = (link.queue_ms - queue_settled) / 13.0;
  EXPECT_LT(creep_ms_per_s, 60.0) << "queue creep above the detection floor";
}

TEST(DelayBwe, TracksACapacityRaise) {
  DelayBasedBwe bwe;
  ToyLink link{4e6};
  converge(bwe, link, 0, 6 * util::kSecond);
  link.capacity = 12e6;
  const double target =
      converge(bwe, link, 6 * util::kSecond, 14 * util::kSecond);
  EXPECT_GE(target, 0.8 * 12e6);
}

// A canned persistent +7.5% overshoot. Paced 7.5% over capacity, the
// queue grows at 0.075 ms of delay per ms, and the trendline's modified
// trend is 0.075 x 20 (window) x 4 (gain) = 6.0 — exactly its min
// threshold, and the comparison is strict — so gradient detection NEVER
// fires and the queue grows ~75 ms of delay per second, unbounded. A
// sender whose pacing runs at most 7.5% over the acked rate (a tighter
// ceiling than kAimdMaxVsAcked) writes that overshoot forever once the
// queue is standing (acked == capacity). The standing-queue level
// detector must catch it by OWD level alone, with no hybrid/PBE
// assistance: sustained excess over the windowed-min base forces an AIMD
// cut, and the latch caps probing at the acked rate until the queue
// demonstrably drains. The result is a bounded sawtooth.
TEST(DelayBwe, StandingQueueLevelDetectorBoundsSubThresholdOvershoot) {
  constexpr double kCapacity = 10e6;
  constexpr double kOvershoot = 1.075;
  constexpr util::Time kDt = 5 * kMs;
  constexpr util::Time kEnd = 30 * util::kSecond;

  // Counterfactual first: the overshoot really is invisible to the
  // trendline, and the queue runs away.
  TrendlineEstimator trendline;
  ToyLink open_loop{kCapacity};
  bool convicted = false;
  for (util::Time t = 0; t < kEnd; t += kDt) {
    const net::AckSample s = open_loop.ack(t, kOvershoot * kCapacity, 5e-3);
    trendline.update(s.now, util::to_seconds(s.one_way_delay) * 1e3);
    convicted |= trendline.state() == BandwidthUsage::kOverusing;
  }
  EXPECT_FALSE(convicted);
  EXPECT_GT(open_loop.queue_ms, 500.0);

  DelayBasedBwe bwe;
  ToyLink link{kCapacity};
  double peak_tail_ms = 0;  // worst queue depth over the final 5 s
  for (util::Time t = 0; t < kEnd; t += kDt) {
    const double acked = bwe.acked_bps();
    const double paced = acked > 0
                             ? std::min(bwe.target_bps(), kOvershoot * acked)
                             : bwe.target_bps();
    bwe.on_ack(link.ack(t, paced, 5e-3));
    if (t >= kEnd - 5 * util::kSecond) {
      peak_tail_ms = std::max(peak_tail_ms, link.queue_ms);
    }
  }
  // The detector fired...
  EXPECT_GT(bwe.level_trips(), 0u);
  // ...and the steady state is a bounded standing queue, not a runaway.
  EXPECT_LT(peak_tail_ms, 120.0);
  EXPECT_LT(link.queue_ms, 120.0);
}

TEST(DelayBwe, SilenceResetsTheTrendlineWindow) {
  DelayBasedBwe bwe;
  ToyLink link{8e6};
  converge(bwe, link, 0, 2 * util::kSecond);
  ASSERT_GT(bwe.trendline().num_points(), 0u);
  // A gap longer than kSilenceReset: the next ACK arrives to an empty
  // window (plus its own fresh point).
  net::AckSample s = link.ack(3 * util::kSecond, bwe.target_bps(), 0.005);
  bwe.on_ack(s);
  EXPECT_EQ(bwe.trendline().num_points(), 1u);
}

TEST(DelayBwe, SeedLiftsTheTargetImmediately) {
  DelayBasedBwe bwe;
  EXPECT_LT(bwe.target_bps(), 10e6);
  bwe.seed_target(10e6);
  EXPECT_DOUBLE_EQ(bwe.target_bps(), 10e6);
}

// --- blend-weight hysteresis (DegradationMachine) ------------------------

// Property: bounded confidence noise commits at most one weight move per
// hold window — i.e. consecutive committed-weight changes are at least
// kBlendHold apart, for any noise sequence inside the deadband-scale band.
TEST(BlendHysteresis, AtMostOneWeightMovePerHoldWindow) {
  pbe::DegradationMachine m(/*blend=*/true);

  // Confidence oscillating across the whole trust ramp: raw targets swing
  // well past the deadband, so an unhysteresed weight would flip on nearly
  // every feedback.
  std::vector<util::Time> commits;
  double prev_w = m.phy_weight();
  // Deterministic pseudo-noise: i*7919 mod 101 spans [0,100] uniformly.
  for (int i = 0; i < 1000; ++i) {
    const util::Time t = i * 10 * kMs;
    const double noise = static_cast<double>((i * 7919) % 101) / 100.0;
    const double conf =
        pbe::kBlendZeroTrustBelow +
        noise * (pbe::kBlendFullTrustAbove - pbe::kBlendZeroTrustBelow);
    m.on_feedback(t, conf);
    m.on_estimates(t, 10e6, 10e6, 10e6, 10e6, false);
    if (m.phy_weight() != prev_w) {
      commits.push_back(t);
      prev_w = m.phy_weight();
    }
  }
  ASSERT_GT(commits.size(), 1u) << "weight never moved — test is vacuous";
  for (std::size_t i = 1; i < commits.size(); ++i) {
    EXPECT_GE(commits[i] - commits[i - 1], pbe::kBlendHold)
        << "two weight commits inside one hold window (commits " << i - 1
        << " and " << i << ")";
  }
}

// Small oscillations inside the deadband must never move the weight at
// all, no matter how long they persist.
TEST(BlendHysteresis, DeadbandAbsorbsSmallOscillation) {
  pbe::DegradationMachine m(/*blend=*/true);
  // Center of the ramp, wobble worth ~half the deadband in weight terms.
  const double mid =
      0.5 * (pbe::kBlendZeroTrustBelow + pbe::kBlendFullTrustAbove);
  const double span = pbe::kBlendFullTrustAbove - pbe::kBlendZeroTrustBelow;
  const double wobble = 0.4 * pbe::kBlendDeadband * span;
  m.on_feedback(0, mid);
  m.on_estimates(0, 10e6, 10e6, 10e6, 10e6, false);
  // Let the first commit land, then wobble.
  m.on_feedback(pbe::kBlendHold + 10 * kMs, mid);
  m.on_estimates(pbe::kBlendHold + 10 * kMs, 10e6, 10e6, 10e6, 10e6, false);
  const double committed = m.phy_weight();
  for (int i = 0; i < 500; ++i) {
    const util::Time t = pbe::kBlendHold + (20 + i * 10) * kMs;
    const double conf = mid + ((i % 2 == 0) ? wobble : -wobble);
    m.on_feedback(t, conf);
    m.on_estimates(t, 10e6, 10e6, 10e6, 10e6, false);
    ASSERT_EQ(m.phy_weight(), committed) << "iteration " << i;
  }
}

}  // namespace
}  // namespace pbecc::bwe
