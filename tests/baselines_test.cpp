// Unit tests for src/baselines: BBR, CUBIC, Copa, Verus, Sprout, PCC
// Allegro and PCC Vivace. These exercise the published control laws
// directly through synthetic ACK streams.
#include <gtest/gtest.h>

#include "baselines/bbr.h"
#include "baselines/copa.h"
#include "baselines/cubic.h"
#include "baselines/pcc.h"
#include "baselines/sprout.h"
#include "baselines/verus.h"

namespace pbecc::baselines {
namespace {

using util::kMillisecond;
using util::kSecond;

net::AckSample ack(util::Time now, double delivery_rate,
                   util::Duration rtt = 50 * kMillisecond,
                   std::uint64_t delivered = 0) {
  net::AckSample s;
  s.now = now;
  s.rtt = rtt;
  s.one_way_delay = rtt / 2;
  s.acked_bytes = 1500;
  s.delivery_rate = delivery_rate;
  s.total_delivered_bytes = delivered;
  s.bytes_in_flight = 30000;
  return s;
}

// -------------------------------------------------------------------- bbr

TEST(Bbr, StartupUsesHighGain) {
  Bbr bbr;
  EXPECT_EQ(bbr.mode(), Bbr::Mode::kStartup);
  bbr.on_ack(ack(kMillisecond, 10e6));
  EXPECT_NEAR(bbr.pacing_rate(kMillisecond), 2.885 * 10e6, 1e5);
}

TEST(Bbr, BtlBwIsWindowedMax) {
  Bbr bbr;
  bbr.on_ack(ack(kMillisecond, 10e6));
  bbr.on_ack(ack(2 * kMillisecond, 25e6));
  bbr.on_ack(ack(3 * kMillisecond, 15e6));
  EXPECT_NEAR(bbr.btl_bw(3 * kMillisecond), 25e6, 1.0);
}

TEST(Bbr, RtpropIsMin) {
  Bbr bbr;
  bbr.on_ack(ack(kMillisecond, 10e6, 80 * kMillisecond));
  bbr.on_ack(ack(2 * kMillisecond, 10e6, 42 * kMillisecond));
  bbr.on_ack(ack(3 * kMillisecond, 10e6, 90 * kMillisecond));
  EXPECT_EQ(bbr.rtprop(), 42 * kMillisecond);
}

TEST(Bbr, LeavesStartupWhenBandwidthPlateaus) {
  Bbr bbr;
  util::Time t = 0;
  std::uint64_t delivered = 0;
  // Keep delivering the same rate: after 3 plateau rounds -> drain ->
  // probe-bw.
  for (int i = 0; i < 2000 && bbr.mode() != Bbr::Mode::kProbeBw; ++i) {
    t += 5 * kMillisecond;
    delivered += 30000;  // force round turnover
    auto s = ack(t, 20e6);
    s.total_delivered_bytes = delivered;
    s.bytes_in_flight = 10000;
    bbr.on_ack(s);
  }
  EXPECT_EQ(bbr.mode(), Bbr::Mode::kProbeBw);
}

TEST(Bbr, ProbeBwCyclesThroughGains) {
  BbrConfig cfg;
  cfg.enter_probe_bw_directly = true;
  Bbr bbr{cfg};
  bbr.seed_estimates(0, 20e6, 40 * kMillisecond);
  util::Time t = 0;
  // Walk past the entry drain.
  for (int i = 0; i < 10; ++i) bbr.on_ack(ack(t += 20 * kMillisecond, 20e6, 40 * kMillisecond));
  EXPECT_EQ(bbr.mode(), Bbr::Mode::kProbeBw);
  bool saw_probe = false, saw_drain = false, saw_cruise = false;
  for (int i = 0; i < 100; ++i) {
    bbr.on_ack(ack(t += 20 * kMillisecond, 20e6, 40 * kMillisecond));
    const double gain = bbr.pacing_rate(t) / bbr.btl_bw(t);
    saw_probe |= gain > 1.2;
    saw_drain |= gain < 0.8;
    saw_cruise |= gain > 0.95 && gain < 1.05;
  }
  EXPECT_TRUE(saw_probe);
  EXPECT_TRUE(saw_drain);
  EXPECT_TRUE(saw_cruise);
}

TEST(Bbr, ProbeCapBindsBelowBtlBw) {
  BbrConfig cfg;
  cfg.enter_probe_bw_directly = true;
  cfg.probe_cap = [] { return 8e6; };  // Cf below BtlBw
  Bbr bbr{cfg};
  bbr.seed_estimates(0, 20e6, 40 * kMillisecond);
  util::Time t = 0;
  for (int i = 0; i < 200; ++i) {
    bbr.on_ack(ack(t += 10 * kMillisecond, 20e6, 40 * kMillisecond));
    if (bbr.mode() == Bbr::Mode::kProbeBw) {
      EXPECT_LE(bbr.pacing_rate(t), 20e6 * 0.76);  // only the 0.75 drain exceeds the cap logic
    }
  }
}

TEST(Bbr, ProbeRttShrinksWindow) {
  Bbr bbr;
  util::Time t = 0;
  std::uint64_t delivered = 0;
  bbr.on_ack(ack(t += kMillisecond, 20e6, 40 * kMillisecond, delivered));
  // No new RTT minimum for > 10 s forces PROBE_RTT.
  for (int i = 0; i < 1300; ++i) {
    delivered += 60000;  // keep rounds turning so STARTUP can complete
    auto s = ack(t += 10 * kMillisecond, 20e6, 60 * kMillisecond);
    s.total_delivered_bytes = delivered;
    s.bytes_in_flight = 10000;
    bbr.on_ack(s);
    if (bbr.mode() == Bbr::Mode::kProbeRtt) break;
  }
  EXPECT_EQ(bbr.mode(), Bbr::Mode::kProbeRtt);
  EXPECT_DOUBLE_EQ(bbr.cwnd_bytes(t), 4.0 * 1500);
}

TEST(Bbr, EntryDrainHalvesRate) {
  BbrConfig cfg;
  cfg.enter_probe_bw_directly = true;
  Bbr bbr{cfg};
  bbr.seed_estimates(0, 20e6, 40 * kMillisecond);
  EXPECT_EQ(bbr.mode(), Bbr::Mode::kEntryDrain);
  EXPECT_NEAR(bbr.pacing_rate(0), 10e6, 1e5);
}

// ------------------------------------------------------------------ cubic

TEST(Cubic, SlowStartDoublesPerRtt) {
  Cubic c;
  const double w0 = c.cwnd_segments();
  for (int i = 0; i < 10; ++i) c.on_ack(ack(kMillisecond * (i + 1), 10e6));
  EXPECT_NEAR(c.cwnd_segments(), w0 + 10, 0.01);
}

TEST(Cubic, LossMultiplicativeDecrease) {
  Cubic c;
  for (int i = 0; i < 90; ++i) c.on_ack(ack(kMillisecond * (i + 1), 10e6));
  const double before = c.cwnd_segments();
  net::LossSample l;
  l.now = 200 * kMillisecond;
  l.bytes_in_flight = 100000;
  c.on_loss(l);
  EXPECT_NEAR(c.cwnd_segments(), before * 0.7, 0.01);
}

TEST(Cubic, OneDecreasePerRtt) {
  Cubic c;
  for (int i = 0; i < 90; ++i) c.on_ack(ack(kMillisecond * (i + 1), 10e6));
  net::LossSample l;
  l.now = 200 * kMillisecond;
  l.bytes_in_flight = 100000;
  c.on_loss(l);
  const double after_first = c.cwnd_segments();
  l.now += kMillisecond;  // within the same RTT
  c.on_loss(l);
  EXPECT_DOUBLE_EQ(c.cwnd_segments(), after_first);
}

TEST(Cubic, GrowsTowardWmaxAfterLoss) {
  Cubic c;
  for (int i = 0; i < 200; ++i) c.on_ack(ack(kMillisecond * (i + 1), 10e6));
  net::LossSample l;
  l.now = 300 * kMillisecond;
  l.bytes_in_flight = 100000;
  c.on_loss(l);
  const double after_loss = c.cwnd_segments();
  util::Time t = 300 * kMillisecond;
  for (int i = 0; i < 2000; ++i) c.on_ack(ack(t += 5 * kMillisecond, 10e6));
  EXPECT_GT(c.cwnd_segments(), after_loss * 1.2);
}

TEST(Cubic, RtoCollapses) {
  Cubic c;
  for (int i = 0; i < 200; ++i) c.on_ack(ack(kMillisecond * (i + 1), 10e6));
  net::LossSample l;
  l.now = 300 * kMillisecond;
  l.bytes_in_flight = 0;  // timeout signature
  c.on_loss(l);
  EXPECT_NEAR(c.cwnd_segments(), 10.0, 0.01);
}

// ------------------------------------------------------------------- copa

TEST(Copa, GrowsWhenNoQueueing) {
  Copa c;
  util::Time t = 0;
  const double w0 = c.cwnd_bytes(0);
  // Constant RTT = no queueing delay measured -> dq tiny -> target huge.
  for (int i = 0; i < 500; ++i) c.on_ack(ack(t += 2 * kMillisecond, 10e6, 40 * kMillisecond));
  EXPECT_GT(c.cwnd_bytes(t), w0 * 2);
}

TEST(Copa, BacksOffUnderQueueing) {
  Copa c;
  util::Time t = 0;
  for (int i = 0; i < 500; ++i) c.on_ack(ack(t += 2 * kMillisecond, 10e6, 40 * kMillisecond));
  const double grown = c.cwnd_bytes(t);
  // RTT inflates 3x: standing queue detected; once velocity rebuilds in
  // the downward direction the window collapses.
  for (int i = 0; i < 3000; ++i) c.on_ack(ack(t += 2 * kMillisecond, 10e6, 120 * kMillisecond));
  EXPECT_LT(c.cwnd_bytes(t), grown * 0.5);
}

TEST(Copa, VelocityAcceleratesGrowth) {
  Copa c;
  util::Time t = 0;
  double prev = c.cwnd_bytes(0);
  double first_delta = -1, late_delta = -1;
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 25; ++j) c.on_ack(ack(t += 2 * kMillisecond, 10e6, 40 * kMillisecond));
    const double d = c.cwnd_bytes(t) - prev;
    if (i == 1) first_delta = d;
    if (i == 39) late_delta = d;
    prev = c.cwnd_bytes(t);
  }
  EXPECT_GT(late_delta, first_delta);
}

// ------------------------------------------------------------------ verus

TEST(Verus, LearnsDelayProfile) {
  Verus v;
  util::Time t = 0;
  // Low delay while window small -> profile lets the window grow.
  const double w0 = v.cwnd_bytes(0);
  for (int i = 0; i < 2000; ++i) {
    auto s = ack(t += kMillisecond, 10e6, 45 * kMillisecond);
    s.bytes_in_flight = static_cast<std::uint64_t>(v.cwnd_bytes(t));
    v.on_ack(s);
  }
  EXPECT_GT(v.cwnd_bytes(t), w0);
}

TEST(Verus, ShrinksOnDelaySurge) {
  Verus v;
  util::Time t = 0;
  for (int i = 0; i < 2000; ++i) {
    auto s = ack(t += kMillisecond, 10e6, 45 * kMillisecond);
    s.bytes_in_flight = static_cast<std::uint64_t>(v.cwnd_bytes(t));
    v.on_ack(s);
  }
  const double grown = v.cwnd_bytes(t);
  for (int i = 0; i < 2000; ++i) {
    auto s = ack(t += kMillisecond, 10e6, 400 * kMillisecond);
    s.bytes_in_flight = static_cast<std::uint64_t>(v.cwnd_bytes(t));
    v.on_ack(s);
  }
  EXPECT_LT(v.cwnd_bytes(t), grown);
}

TEST(Verus, LossHalvesWindow) {
  Verus v;
  util::Time t = 0;
  for (int i = 0; i < 1000; ++i) {
    auto s = ack(t += kMillisecond, 10e6, 45 * kMillisecond);
    s.bytes_in_flight = static_cast<std::uint64_t>(v.cwnd_bytes(t));
    v.on_ack(s);
  }
  const double before = v.cwnd_bytes(t);
  net::LossSample l;
  l.now = t;
  l.bytes_in_flight = 10000;
  v.on_loss(l);
  EXPECT_NEAR(v.cwnd_bytes(t), before / 2, 1500.0);
}

// ----------------------------------------------------------------- sprout

TEST(Sprout, TracksStableRateConservatively) {
  Sprout s;
  util::Time t = 0;
  for (int i = 0; i < 3000; ++i) s.on_ack(ack(t += kMillisecond, 12e6));
  // Paces somewhere at-or-below the observed 12 Mbit/s (its acked-bytes
  // stream), never above it by much.
  EXPECT_LT(s.pacing_rate(t), 16e6);
  EXPECT_GT(s.pacing_rate(t), 1e6);
}

TEST(Sprout, WindowCoversHorizonOnly) {
  Sprout s;
  util::Time t = 0;
  for (int i = 0; i < 3000; ++i) s.on_ack(ack(t += kMillisecond, 12e6));
  // cwnd ~ rate * 100 ms.
  const double rate = s.pacing_rate(t);
  EXPECT_NEAR(s.cwnd_bytes(t), rate / 8.0 * 0.1, rate / 8.0 * 0.05);
}

TEST(Sprout, VarianceReducesRate) {
  // A bursty ack stream must produce a more cautious rate than a smooth
  // one with the same mean.
  Sprout smooth, bursty;
  util::Time t = 0;
  for (int i = 0; i < 4000; ++i) {
    t += kMillisecond;
    smooth.on_ack(ack(t, 12e6));
    auto s = ack(t, 12e6);
    s.acked_bytes = (i / 40) % 2 == 0 ? 3000 : 0;  // on-off bursts
    bursty.on_ack(s);
  }
  EXPECT_LT(bursty.pacing_rate(t), smooth.pacing_rate(t));
}

// -------------------------------------------------------------------- pcc

TEST(MonitorIntervalsTest, Accounting) {
  MonitorIntervals mi;
  auto s = ack(kMillisecond, 0, 40 * kMillisecond);
  mi.on_ack(s);
  net::LossSample l;
  l.lost_bytes = 1500;
  mi.on_loss(l);
  for (int i = 2; i <= 20; ++i) mi.on_ack(ack(i * kMillisecond, 0, 40 * kMillisecond));
  const auto r = mi.poll(21 * kMillisecond, 20 * kMillisecond);
  ASSERT_TRUE(r.has_value());
  // 20 acks x 1500 B over 20 ms = 12 Mbit/s.
  EXPECT_NEAR(r->throughput_bps, 12e6, 1e6);
  EXPECT_NEAR(r->loss_rate, 1500.0 / (20 * 1500 + 1500), 1e-6);
  EXPECT_NEAR(r->avg_rtt_ms, 40.0, 0.1);
  // Not ready again immediately.
  EXPECT_FALSE(mi.poll(22 * kMillisecond, 20 * kMillisecond).has_value());
}

TEST(PccAllegro, StartingDoublesWhileUtilityImproves) {
  PccConfig cfg;
  cfg.initial_rate = 1e6;
  PccAllegro pcc{cfg};
  util::Time t = 0;
  const double r0 = pcc.pacing_rate(0);
  // Deliver exactly what is sent: utility keeps improving with rate.
  for (int i = 0; i < 400; ++i) {
    auto s = ack(t += kMillisecond, 0, 30 * kMillisecond);
    s.acked_bytes = static_cast<std::int32_t>(pcc.pacing_rate(t) / 8.0 / 1000.0);
    pcc.on_ack(s);
  }
  EXPECT_GT(pcc.pacing_rate(t), 4 * r0);
}

TEST(PccAllegro, RateStaysWithinBounds) {
  PccConfig cfg;
  PccAllegro pcc{cfg};
  util::Time t = 0;
  util::Rng rng{3};
  for (int i = 0; i < 3000; ++i) {
    auto s = ack(t += kMillisecond, 0, 30 * kMillisecond);
    s.acked_bytes = static_cast<std::int32_t>(rng.uniform(0, 3000));
    pcc.on_ack(s);
    if (i % 7 == 0) {
      net::LossSample l;
      l.lost_bytes = 1500;
      pcc.on_loss(l);
    }
    EXPECT_GE(pcc.pacing_rate(t), kPccMinRate * 0.9);
    EXPECT_LE(pcc.pacing_rate(t), kPccMaxRate * 1.1);
  }
}

TEST(PccVivace, GradientMovesTowardCapacity) {
  PccConfig cfg;
  cfg.initial_rate = 4e6;
  PccVivace v{cfg};
  util::Time t = 0;
  // Link with 20 Mbit/s capacity, no queue penalty below it.
  for (int i = 0; i < 5000; ++i) {
    auto s = ack(t += kMillisecond, 0, 30 * kMillisecond);
    const double rate = std::min(v.pacing_rate(t), 20e6);
    s.acked_bytes = static_cast<std::int32_t>(rate / 8.0 / 1000.0);
    v.on_ack(s);
  }
  EXPECT_GT(v.pacing_rate(t), 6e6);  // moved up from 4
}

TEST(PccVivace, RttGradientPenalizesOvershoot) {
  PccConfig cfg;
  cfg.initial_rate = 30e6;
  PccVivace v{cfg};
  util::Time t = 0;
  // 10 Mbit/s bottleneck with a real integrating queue: the +eps trial
  // inflates RTT faster than the -eps trial, producing a negative
  // utility gradient that pushes the rate down toward capacity.
  constexpr double cap = 10e6;
  double queue_bits = 0;
  for (int i = 0; i < 20000; ++i) {
    const double rate = v.pacing_rate(t);
    queue_bits = std::max(0.0, queue_bits + (rate - cap) / 1000.0);
    const auto rtt = 30 * kMillisecond +
                     static_cast<util::Duration>(queue_bits / cap * 1e6);
    auto s = ack(t += kMillisecond, 0, rtt);
    s.acked_bytes = static_cast<std::int32_t>(std::min(rate, cap) / 8.0 / 1000.0);
    v.on_ack(s);
  }
  EXPECT_LT(v.pacing_rate(t), 24e6);  // well below the 30 Mbit/s start
}

}  // namespace
}  // namespace pbecc::baselines
