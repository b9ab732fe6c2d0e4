// Fault injection and graceful degradation (DESIGN.md §8): the
// deterministic injector, the three-state degradation machine, the
// sender's hold-and-decay / fallback behaviour, the monitor's decode
// accounting, the client confidence score, and end-to-end recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "decoder/monitor.h"
#include "fault/fault.h"
#include "net/congestion_controller.h"
#include "obs/obs.h"
#include "pbe/degradation.h"
#include "pbe/pbe_client.h"
#include "pbe/pbe_sender.h"
#include "phy/pdcch.h"
#include "sim/location.h"
#include "sim/scenario.h"

namespace pbecc {
namespace {

using pbe::DegradationState;

// ------------------------------------------------- FaultInjector basics

fault::FaultProfile busy_profile() {
  fault::FaultProfile p;
  p.blackout_duty = 0.5;
  p.sinr_collapse_per_sec = 2.0;
  p.false_dci_per_subframe = 0.5;
  p.stall_duty = 0.25;
  p.feedback_loss = 0.3;
  p.feedback_corrupt = 0.3;
  p.feedback_delay_spike = 100 * util::kMillisecond;
  p.feedback_spike_duty = 0.25;
  p.handover_storm_duty = 0.5;
  return p;
}

TEST(FaultInjector, SameSeedSameScheduleAnyQueryOrder) {
  const auto p = busy_profile();
  fault::FaultInjector a{p, 42};
  fault::FaultInjector b{p, 42};
  fault::FaultInjector c{p, 43};

  // Record every query family forward from `a`, backward from `b`: a
  // stateless injector must not care about query order.
  struct Probe {
    bool blackout, stalled, storm, drop, corrupt;
    double ber;
    int false_dcis;
    util::Duration delay;
    std::uint32_t word;
  };
  const auto probe = [](const fault::FaultInjector& inj, std::int64_t sf) {
    const util::Time t = sf * util::kSubframe;
    const auto f = inj.feedback_fault(t, 1, static_cast<std::uint64_t>(sf));
    return Probe{inj.dci_blackout(t, 1),
                 inj.monitor_stalled(t),
                 inj.handover_storm(t),
                 f.drop,
                 f.corrupt,
                 inj.extra_control_ber(t, 1),
                 inj.false_dci_count(sf, 1),
                 f.extra_delay,
                 inj.corrupt_word(600, 1, static_cast<std::uint64_t>(sf))};
  };

  constexpr std::int64_t kSubframes = 3000;
  std::vector<Probe> fwd, bwd, other;
  for (std::int64_t sf = 0; sf < kSubframes; ++sf) fwd.push_back(probe(a, sf));
  for (std::int64_t sf = kSubframes - 1; sf >= 0; --sf) {
    bwd.push_back(probe(b, sf));
  }
  std::reverse(bwd.begin(), bwd.end());
  for (std::int64_t sf = 0; sf < kSubframes; ++sf) other.push_back(probe(c, sf));

  int seed_diffs = 0;
  for (std::size_t i = 0; i < fwd.size(); ++i) {
    ASSERT_EQ(fwd[i].blackout, bwd[i].blackout) << i;
    ASSERT_EQ(fwd[i].stalled, bwd[i].stalled) << i;
    ASSERT_EQ(fwd[i].storm, bwd[i].storm) << i;
    ASSERT_EQ(fwd[i].drop, bwd[i].drop) << i;
    ASSERT_EQ(fwd[i].corrupt, bwd[i].corrupt) << i;
    ASSERT_EQ(fwd[i].ber, bwd[i].ber) << i;
    ASSERT_EQ(fwd[i].false_dcis, bwd[i].false_dcis) << i;
    ASSERT_EQ(fwd[i].delay, bwd[i].delay) << i;
    ASSERT_EQ(fwd[i].word, bwd[i].word) << i;
    seed_diffs += fwd[i].drop != other[i].drop ||
                  fwd[i].ber != other[i].ber ||
                  fwd[i].false_dcis != other[i].false_dcis ||
                  fwd[i].word != other[i].word;
  }
  // A different seed must yield a genuinely different schedule.
  EXPECT_GT(seed_diffs, 0);
}

TEST(FaultInjector, BlackoutWindowsBoundedAndDutyCycled) {
  fault::FaultProfile p;
  p.blackout_duty = 0.5;
  p.blackout_period = util::kSecond;
  p.blackout_from = 2 * util::kSecond;
  p.blackout_until = 6 * util::kSecond;
  fault::FaultInjector inj{p, 1};

  EXPECT_FALSE(inj.dci_blackout(0, 1));
  EXPECT_FALSE(inj.dci_blackout(2 * util::kSecond - 1, 1));
  // Windows are anchored at blackout_from: the outage starts exactly there.
  EXPECT_TRUE(inj.dci_blackout(2 * util::kSecond, 1));
  EXPECT_TRUE(inj.dci_blackout(2 * util::kSecond + 499 * util::kMillisecond, 1));
  EXPECT_FALSE(inj.dci_blackout(2 * util::kSecond + 500 * util::kMillisecond, 1));
  EXPECT_TRUE(inj.dci_blackout(3 * util::kSecond, 1));
  EXPECT_FALSE(inj.dci_blackout(6 * util::kSecond, 1));
  EXPECT_FALSE(inj.dci_blackout(10 * util::kSecond, 1));

  int on = 0;
  for (util::Time t = 2 * util::kSecond; t < 6 * util::kSecond;
       t += util::kMillisecond) {
    on += inj.dci_blackout(t, 1) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(on) / 4000.0, 0.5, 0.01);
}

TEST(FaultInjector, CorruptWordNeverIdentityNorZero) {
  fault::FaultInjector inj{busy_profile(), 9};
  for (const std::uint32_t word : {0u, 1u, 600u, 0xFFFFFFFFu}) {
    for (std::uint64_t seq = 0; seq < 500; ++seq) {
      const auto garbled = inj.corrupt_word(word, 3, seq);
      EXPECT_NE(garbled, word);
      EXPECT_NE(garbled, 0u);
    }
  }
}

TEST(FaultInjector, FalseDcisArePlausibleAndRecurring) {
  fault::FaultProfile p;
  p.false_dci_per_subframe = 1.5;
  fault::FaultInjector inj{p, 4};
  constexpr int kCellPrbs = 50;
  int total = 0;
  std::vector<phy::Rnti> rntis;
  for (std::int64_t sf = 0; sf < 4000; ++sf) {
    const int n = inj.false_dci_count(sf, 1);
    ASSERT_GE(n, 1);
    ASSERT_LE(n, 2);
    total += n;
    for (int k = 0; k < n; ++k) {
      const auto d = inj.make_false_dci(sf, 1, kCellPrbs, k);
      EXPECT_GE(d.n_prbs, 1);
      EXPECT_LE(d.prb_start + d.n_prbs, kCellPrbs);
      EXPECT_GE(d.rnti, 0xF000);
      rntis.push_back(d.rnti);
    }
  }
  EXPECT_NEAR(static_cast<double>(total) / 4000.0, 1.5, 0.05);
  // CRC aliasing clusters on a small recurring pool, not fresh RNTIs.
  std::sort(rntis.begin(), rntis.end());
  rntis.erase(std::unique(rntis.begin(), rntis.end()), rntis.end());
  EXPECT_LE(rntis.size(), 4u);
}

// ------------------------------------------------- DegradationMachine

TEST(DegradationMachine, InertUntilFirstFeedback) {
  pbe::DegradationMachine m;
  EXPECT_FALSE(m.engaged());
  // Hours of silence before the first feedback must not degrade anything:
  // the connection simply has not heard from its client yet.
  m.advance(3600 * util::kSecond);
  EXPECT_EQ(m.state(), DegradationState::kPrecise);
  m.on_feedback(3600 * util::kSecond, 1.0);
  EXPECT_TRUE(m.engaged());
  EXPECT_EQ(m.state(), DegradationState::kPrecise);
}

TEST(DegradationMachine, LowConfidenceDegradesImmediately) {
  pbe::DegradationMachine m;
  m.on_feedback(0, 1.0);
  EXPECT_EQ(m.state(), DegradationState::kPrecise);
  m.on_feedback(10 * util::kMillisecond, 0.3);
  EXPECT_EQ(m.state(), DegradationState::kDegraded);
}

TEST(DegradationMachine, MidBandHoldsEitherState) {
  const double mid = (pbe::kDegradeBelow + pbe::kRecoverAbove) / 2;

  pbe::DegradationMachine precise;
  precise.on_feedback(0, 1.0);
  for (util::Time t = 0; t < util::kSecond; t += 10 * util::kMillisecond) {
    precise.on_feedback(t, mid);
    ASSERT_EQ(precise.state(), DegradationState::kPrecise) << t;
  }

  pbe::DegradationMachine degraded;
  degraded.on_feedback(0, 1.0);
  degraded.on_feedback(10 * util::kMillisecond, 0.3);
  ASSERT_EQ(degraded.state(), DegradationState::kDegraded);
  // Mid-band confidence neither recovers nor escalates to FALLBACK, no
  // matter how long it persists.
  for (util::Time t = 20 * util::kMillisecond; t < util::kSecond;
       t += 10 * util::kMillisecond) {
    degraded.on_feedback(t, mid);
    ASSERT_EQ(degraded.state(), DegradationState::kDegraded) << t;
  }
}

TEST(DegradationMachine, EscalatesToFallbackAfterContinuousIllHealth) {
  pbe::DegradationMachine m;
  m.on_feedback(0, 1.0);
  util::Time t = 0;
  while (m.state() != DegradationState::kFallback && t < 2 * util::kSecond) {
    t += 10 * util::kMillisecond;
    m.on_feedback(t, 0.2);
  }
  EXPECT_EQ(m.state(), DegradationState::kFallback);
  // DEGRADED fires on the first bad word; FALLBACK needs kFallbackAfter of
  // continuous ill health on top.
  EXPECT_GE(t, pbe::kFallbackAfter);
  EXPECT_LE(t, pbe::kFallbackAfter + 30 * util::kMillisecond);
}

TEST(DegradationMachine, SilenceTripsTheWatchdog) {
  pbe::DegradationMachine m;
  m.on_feedback(0, 1.0);
  // Feedback stops entirely; only the clock advances (sends / bare acks).
  m.advance(pbe::kFeedbackTimeout);
  EXPECT_EQ(m.state(), DegradationState::kPrecise);  // exactly at the edge
  m.advance(pbe::kFeedbackTimeout + 10 * util::kMillisecond);
  EXPECT_EQ(m.state(), DegradationState::kDegraded);
  m.advance(pbe::kFeedbackTimeout + pbe::kFallbackAfter +
            20 * util::kMillisecond);
  EXPECT_EQ(m.state(), DegradationState::kFallback);
}

TEST(DegradationMachine, RecoveryRequiresContinuousHealth) {
  pbe::DegradationMachine m;
  m.on_feedback(0, 0.2);
  m.on_feedback(pbe::kFallbackAfter + 10 * util::kMillisecond, 0.2);
  ASSERT_EQ(m.state(), DegradationState::kFallback);

  // Healthy feedback resumes at t0 — but flickers mid-band at t0+60 ms,
  // which must restart the kRecoverHold clock.
  const util::Time t0 = util::kSecond;
  m.on_feedback(t0, 0.9);
  m.on_feedback(t0 + 50 * util::kMillisecond, 0.9);
  ASSERT_EQ(m.state(), DegradationState::kFallback);
  m.on_feedback(t0 + 60 * util::kMillisecond, 0.65);  // mid-band flicker
  m.on_feedback(t0 + 70 * util::kMillisecond, 0.9);
  m.on_feedback(t0 + 160 * util::kMillisecond, 0.9);  // only 90 ms continuous
  EXPECT_EQ(m.state(), DegradationState::kFallback);
  m.on_feedback(t0 + 70 * util::kMillisecond + pbe::kRecoverHold, 0.9);
  EXPECT_EQ(m.state(), DegradationState::kPrecise);
}

TEST(DegradationMachine, TransitionHookSeesEveryState) {
  pbe::DegradationMachine m;
  std::vector<std::pair<DegradationState, DegradationState>> switches;
  m.set_transition_hook([&](util::Time, DegradationState from,
                            DegradationState to) {
    switches.emplace_back(from, to);
    EXPECT_EQ(m.state(), to);  // hook fires after the state updates
  });
  m.on_feedback(0, 1.0);
  util::Time t = 0;
  while (m.state() != DegradationState::kFallback) {
    t += 10 * util::kMillisecond;
    m.on_feedback(t, 0.2);
  }
  while (m.state() != DegradationState::kPrecise) {
    t += 10 * util::kMillisecond;
    m.on_feedback(t, 0.95);
  }
  const std::vector<std::pair<DegradationState, DegradationState>> expected = {
      {DegradationState::kPrecise, DegradationState::kDegraded},
      {DegradationState::kDegraded, DegradationState::kFallback},
      {DegradationState::kFallback, DegradationState::kPrecise},
  };
  EXPECT_EQ(switches, expected);
}

// ------------------------------------------------- PbeSender degradation

net::AckSample good_ack(util::Time now, std::uint64_t seq, double rate_bps,
                        std::uint8_t conf = 255) {
  net::AckSample s;
  s.now = now;
  s.seq = seq;
  s.acked_bytes = net::kDefaultMss;
  s.rtt = 40 * util::kMillisecond;
  s.one_way_delay = 20 * util::kMillisecond;
  s.delivery_rate = rate_bps;
  s.pbe_rate_interval_us = static_cast<std::uint32_t>(
      static_cast<double>(net::kDefaultMss) * 8.0 / rate_bps * 1e6);
  s.pbe_confidence = conf;
  return s;
}

TEST(PbeSenderFault, DegradesDecaysThenFallsBackAndRecovers) {
  pbe::PbeSender sender;
  constexpr double kRate = 20e6;
  util::Time t = 0;
  std::uint64_t seq = 0;
  for (; t < 500 * util::kMillisecond; t += 10 * util::kMillisecond) {
    sender.on_ack(good_ack(t, seq++, kRate));
  }
  ASSERT_EQ(sender.degradation_state(), DegradationState::kPrecise);
  EXPECT_NEAR(sender.pacing_rate(t), kRate, kRate * 0.05);

  // Client confidence collapses: one low-confidence word degrades.
  sender.on_ack(good_ack(t, seq++, kRate, /*conf=*/40));
  ASSERT_EQ(sender.degradation_state(), DegradationState::kDegraded);

  // DEGRADED paces at the held rate and halves it every kHoldHalfLife.
  const double r0 = sender.pacing_rate(t);
  EXPECT_NEAR(r0, kRate, kRate * 0.05);
  const auto half_life = pbe::kHoldHalfLife;
  EXPECT_NEAR(sender.pacing_rate(t + half_life), r0 / 2, r0 * 0.05);
  EXPECT_NEAR(sender.pacing_rate(t + 2 * half_life), r0 / 4, r0 * 0.05);

  // Sustained low confidence escalates to FALLBACK: a plain BBR paces.
  const util::Time degrade_at = t;
  while (sender.degradation_state() != DegradationState::kFallback &&
         t < degrade_at + util::kSecond) {
    t += 10 * util::kMillisecond;
    sender.on_ack(good_ack(t, seq++, kRate, /*conf=*/40));
  }
  ASSERT_EQ(sender.degradation_state(), DegradationState::kFallback);
  EXPECT_FALSE(sender.in_internet_mode());
  EXPECT_GT(sender.pacing_rate(t), 0.0);

  // Internet-mode switching is ignored while the feedback is untrusted.
  auto internet = good_ack(t + 10 * util::kMillisecond, seq++, kRate, 40);
  internet.pbe_internet_bottleneck = true;
  sender.on_ack(internet);
  EXPECT_FALSE(sender.in_internet_mode());

  // The feed heals: healthy words recover PRECISE and pacing returns to
  // exactly the reported rate.
  const util::Time heal_at = t;
  while (sender.degradation_state() != DegradationState::kPrecise &&
         t < heal_at + util::kSecond) {
    t += 10 * util::kMillisecond;
    sender.on_ack(good_ack(t, seq++, kRate));
  }
  ASSERT_EQ(sender.degradation_state(), DegradationState::kPrecise);
  EXPECT_LE(t - heal_at, 200 * util::kMillisecond);
  EXPECT_NEAR(sender.pacing_rate(t), kRate, kRate * 0.05);
}

TEST(PbeSenderFault, ImplausibleFeedbackWordIsRejected) {
  pbe::PbeSender sender;
  constexpr double kRate = 20e6;
  util::Time t = 0;
  std::uint64_t seq = 0;
  for (; t < 300 * util::kMillisecond; t += 10 * util::kMillisecond) {
    sender.on_ack(good_ack(t, seq++, kRate));
  }
  ASSERT_NEAR(sender.feedback_rate(), kRate, 1.0);
  ASSERT_DOUBLE_EQ(sender.misreport_detector().plausibility(), 1.0);

  // A corrupted word decoding to 12 Gbps must not steer pacing.
  auto garbled = good_ack(t, seq++, kRate);
  garbled.pbe_rate_interval_us = 1;
  sender.on_ack(garbled);
  EXPECT_NEAR(sender.feedback_rate(), kRate, 1.0);
  EXPECT_LT(sender.misreport_detector().plausibility(), 1.0);
  EXPECT_EQ(sender.degradation_state(), DegradationState::kPrecise);
}

TEST(PbeSenderFault, SustainedCorruptionDragsConfidenceDown) {
  pbe::PbeSender sender;
  constexpr double kRate = 20e6;
  util::Time t = 0;
  std::uint64_t seq = 0;
  for (; t < 300 * util::kMillisecond; t += 10 * util::kMillisecond) {
    sender.on_ack(good_ack(t, seq++, kRate));
  }
  ASSERT_EQ(sender.degradation_state(), DegradationState::kPrecise);

  // Three of four words garbled: the plausibility EWMA sinks until even
  // the intact words (carrying full client confidence) stop being trusted.
  int rounds = 0;
  while (sender.degradation_state() == DegradationState::kPrecise &&
         rounds < 200) {
    for (int k = 0; k < 3; ++k) {
      t += 10 * util::kMillisecond;
      auto garbled = good_ack(t, seq++, kRate);
      garbled.pbe_rate_interval_us = 1;
      sender.on_ack(garbled);
    }
    t += 10 * util::kMillisecond;
    sender.on_ack(good_ack(t, seq++, kRate));
    ++rounds;
  }
  EXPECT_NE(sender.degradation_state(), DegradationState::kPrecise);
  EXPECT_LT(sender.misreport_detector().plausibility(), 0.55);
}

TEST(PbeSenderFault, TotalSilenceFallsBackViaSends) {
  pbe::PbeSender sender;
  constexpr double kRate = 20e6;
  util::Time t = 0;
  std::uint64_t seq = 0;
  for (; t < 200 * util::kMillisecond; t += 10 * util::kMillisecond) {
    sender.on_ack(good_ack(t, seq++, kRate));
  }
  ASSERT_EQ(sender.degradation_state(), DegradationState::kPrecise);

  // Feedback stops dead (e.g. the ACK path drops everything). Sends are
  // the only clock the watchdog has left.
  net::Packet pkt;
  bool saw_degraded = false;
  for (; t < util::kSecond; t += 10 * util::kMillisecond) {
    sender.on_packet_sent(t, pkt, 0);
    saw_degraded |= sender.degradation_state() == DegradationState::kDegraded;
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_EQ(sender.degradation_state(), DegradationState::kFallback);
}

// ------------------------------------------------- Monitor accounting

struct MonitorHarness {
  phy::CellConfig cell{1, 10.0};
  std::vector<decoder::CellObservation> last;
  decoder::Monitor mon;
  std::int64_t sf = 0;

  explicit MonitorHarness(const fault::FaultInjector* faults = nullptr)
      : mon(0x100, {cell},
            [this](const std::vector<decoder::CellObservation>& obs) {
              last = obs;
            },
            {}, {}, 99, faults) {}

  // Feed one subframe carrying our grant; returns that subframe's start
  // time (the instant the monitor accounted it).
  util::Time step() {
    phy::PdcchBuilder b(cell, sf);
    phy::Dci d;
    d.rnti = 0x100;
    d.format = phy::DciFormat::kFormat1;
    d.n_prbs = 4;
    d.mcs = {11, 1};
    b.add(d, 1);
    mon.on_pdcch_batch({std::move(b).build()});
    return (sf++) * util::kSubframe;
  }
};

TEST(MonitorFault, CleanFeedScoresFullRate) {
  MonitorHarness h;
  util::Time now = 0;
  for (int i = 0; i < 300; ++i) now = h.step();
  EXPECT_DOUBLE_EQ(h.mon.decode_success_rate(now), 1.0);
  EXPECT_EQ(h.mon.decode_failures(), 0u);
  EXPECT_EQ(h.mon.decode_attempts(), 300u);
}

TEST(MonitorFault, BlackoutDecaysRateMonotonically) {
  fault::FaultProfile p;
  p.blackout_duty = 1.0;
  p.blackout_from = 100 * util::kMillisecond;
  fault::FaultInjector inj{p, 2};
  MonitorHarness h{&inj};

  util::Time now = 0;
  for (int i = 0; i < 100; ++i) now = h.step();
  ASSERT_DOUBLE_EQ(h.mon.decode_success_rate(now), 1.0);

  // Every subframe from here on fails to decode: the success rate must
  // fall monotonically toward zero — this is what feeds the client
  // confidence score, so it may never bounce.
  double prev = 1.0;
  for (int i = 0; i < 300; ++i) {
    now = h.step();
    const double rate = h.mon.decode_success_rate(now);
    ASSERT_LE(rate, prev + 1e-9) << "subframe " << i;
    prev = rate;
  }
  EXPECT_LE(prev, 0.05);
  EXPECT_GE(h.mon.decode_failures(), 290u);
}

TEST(MonitorFault, HalfDutyScoresHalfRate) {
  fault::FaultProfile p;
  p.blackout_duty = 0.5;
  p.blackout_period = 100 * util::kMillisecond;
  fault::FaultInjector inj{p, 2};
  MonitorHarness h{&inj};
  util::Time now = 0;
  for (int i = 0; i < 600; ++i) now = h.step();
  EXPECT_NEAR(h.mon.decode_success_rate(now), 0.5, 0.15);
}

TEST(MonitorFault, RateRecoversWhenBlackoutEnds) {
  fault::FaultProfile p;
  p.blackout_duty = 1.0;
  p.blackout_from = 0;
  p.blackout_until = 300 * util::kMillisecond;
  fault::FaultInjector inj{p, 2};
  MonitorHarness h{&inj};
  util::Time now = 0;
  for (int i = 0; i < 300; ++i) now = h.step();
  ASSERT_LE(h.mon.decode_success_rate(now), 0.05);
  for (int i = 0; i < 300; ++i) now = h.step();
  EXPECT_GE(h.mon.decode_success_rate(now), 0.95);
}

TEST(MonitorFault, StallChargesTheDenominator) {
  // A frozen monitor processes nothing at all; the wall-clock denominator
  // must still charge that time so a stall looks exactly like failing.
  fault::FaultProfile p;
  p.stall_duty = 0.5;
  p.stall_period = 100 * util::kMillisecond;
  fault::FaultInjector inj{p, 2};
  MonitorHarness h{&inj};
  util::Time now = 0;
  for (int i = 0; i < 600; ++i) now = h.step();
  EXPECT_NEAR(h.mon.decode_success_rate(now), 0.5, 0.15);
}

// ------------------------------------------------- Client confidence

TEST(PbeClientFault, ConfidenceTracksBlackoutMonotonically) {
  fault::FaultProfile p;
  p.blackout_duty = 1.0;
  p.blackout_from = 200 * util::kMillisecond;
  fault::FaultInjector inj{p, 2};

  phy::CellConfig cell{1, 10.0};
  pbe::PbeClientConfig cfg;
  cfg.rnti = 0x100;
  cfg.cells = {cell};
  cfg.faults = &inj;
  pbe::PbeClient client{cfg, [](phy::CellId) {
                          phy::ChannelState s;
                          s.rssi_dbm = -95;
                          s.sinr_db = 15;
                          s.cqi = 11;
                          s.data_ber = 1e-6;
                          s.control_ber = 0;
                          return s;
                        }};

  std::int64_t sf = 0;
  std::uint64_t seq = 0;
  const auto step = [&] {
    phy::PdcchBuilder b(cell, sf);
    phy::Dci d;
    d.rnti = 0x100;
    d.format = phy::DciFormat::kFormat1;
    d.n_prbs = 8;
    d.mcs = {11, 1};
    b.add(d, 1);
    client.on_pdcch_batch({std::move(b).build()});
    ++sf;
    const util::Time now = sf * util::kSubframe;
    net::Packet pkt;
    pkt.seq = seq++;
    pkt.bytes = 1500;
    pkt.sent_time = now - 20 * util::kMillisecond;
    net::Ack ack;
    client.fill_feedback(pkt, now, ack);
    return ack;
  };

  for (int i = 0; i < 200; ++i) step();
  ASSERT_GE(step().pbe_confidence, 250);

  // During the blackout the stamped confidence decays without ever
  // bouncing back up (decode rate and estimate freshness both monotone).
  int prev = 255;
  for (int i = 0; i < 400; ++i) {
    const int conf = step().pbe_confidence;
    ASSERT_LE(conf, prev + 1) << "subframe " << i;  // +1 absorbs rounding
    prev = conf;
  }
  EXPECT_LE(prev, 30);
}

// ------------------------------------------------- Scenario integration

std::vector<obs::Event> run_traced_scenario(std::uint64_t fault_seed) {
  obs::Trace trace;
  {
    sim::ScenarioConfig cfg = sim::scenario_config_for(sim::location(2));
    cfg.fault = *fault::profile_by_name("feedback-loss");
    cfg.fault_seed = fault_seed;
    cfg.capture.trace = &trace;
    sim::Scenario s{std::move(cfg)};
    s.add_ue(sim::ue_spec_for(sim::location(2)));
    sim::FlowSpec flow;
    flow.algo = "pbe";
    flow.path.one_way_delay = 25 * util::kMillisecond;
    flow.start = 100 * util::kMillisecond;
    flow.stop = 3 * util::kSecond;
    s.add_flow(flow);
    s.run_until(3 * util::kSecond);
  }
  std::vector<obs::Event> out;
  for (const auto& e : trace.snapshot()) {
    if (e.kind == obs::EventKind::kFaultInjected ||
        e.kind == obs::EventKind::kDegradationSwitch) {
      out.push_back(e);
    }
  }
  return out;
}

TEST(FaultScenario, SameFaultSeedSameEventSchedule) {
  const auto a = run_traced_scenario(7);
  const auto b = run_traced_scenario(7);
  const auto c = run_traced_scenario(8);

  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t, b[i].t) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].id, b[i].id) << i;
    EXPECT_EQ(a[i].id2, b[i].id2) << i;
    EXPECT_EQ(a[i].a, b[i].a) << i;
    EXPECT_EQ(a[i].x, b[i].x) << i;
    EXPECT_EQ(a[i].y, b[i].y) << i;
  }

  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].t != c[i].t || a[i].kind != c[i].kind ||
              a[i].id2 != c[i].id2 || a[i].a != c[i].a;
  }
  EXPECT_TRUE(differs) << "fault seed must change the schedule";
}

TEST(FaultScenario, BlackoutForcesFallbackThenTimelyRecovery) {
  constexpr util::Time kHealAt = 3 * util::kSecond;
  fault::FaultProfile p;
  p.blackout_duty = 1.0;
  p.blackout_from = util::kSecond;
  p.blackout_until = kHealAt;

  sim::ScenarioConfig cfg = sim::scenario_config_for(sim::location(2));
  cfg.fault = p;
  cfg.fault_seed = 3;
  sim::Scenario s{std::move(cfg)};
  s.add_ue(sim::ue_spec_for(sim::location(2)));
  sim::FlowSpec flow;
  flow.algo = "pbe";
  flow.path.one_way_delay = 25 * util::kMillisecond;
  flow.start = 100 * util::kMillisecond;
  flow.stop = 5 * util::kSecond;
  const int f = s.add_flow(flow);
  auto& sender = dynamic_cast<pbe::PbeSender&>(s.sender(f).controller());

  bool saw_fallback = false;
  util::Time precise_again = -1;
  for (util::Time t = flow.start; t < flow.stop;
       t += 10 * util::kMillisecond) {
    s.run_until(t);
    const auto st = sender.degradation_state();
    if (t < kHealAt && st == DegradationState::kFallback) saw_fallback = true;
    if (saw_fallback && precise_again < 0 && t >= kHealAt &&
        st == DegradationState::kPrecise) {
      precise_again = t;
    }
  }
  EXPECT_TRUE(saw_fallback) << "solid blackout must reach FALLBACK";
  ASSERT_GE(precise_again, 0) << "never re-entered PRECISE";
  // Acceptance criterion: PRECISE re-entry within 500 ms of the feed
  // returning.
  EXPECT_LE(precise_again - kHealAt, 500 * util::kMillisecond);
}

}  // namespace
}  // namespace pbecc
