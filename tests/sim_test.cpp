// Unit tests for src/sim: metrics, algorithm factory, location profiles,
// and scenario wiring.
#include <gtest/gtest.h>

#include <cmath>

#include "pbe/pbe_sender.h"
#include "sim/algorithms.h"
#include "sim/location.h"
#include "sim/metrics.h"
#include "sim/scenario.h"

namespace pbecc::sim {
namespace {

using util::kMillisecond;
using util::kSecond;

// ----------------------------------------------------------------- metrics

TEST(FlowStatsTest, WindowedThroughput) {
  FlowStats st;
  net::Packet p;
  p.bytes = 1500;
  // 10 packets per 100 ms window for 5 windows = 1.2 Mbit/s.
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 10; ++i) {
      const util::Time now = w * 100 * kMillisecond + i * 10 * kMillisecond;
      p.sent_time = now - 30 * kMillisecond;
      st.on_delivery(p, now);
    }
  }
  st.finish(5 * 100 * kMillisecond);
  EXPECT_EQ(st.packets(), 50u);
  ASSERT_GE(st.window_tputs_mbps().count(), 4u);
  EXPECT_NEAR(st.window_tputs_mbps().percentile(50), 1.2, 0.01);
  EXPECT_NEAR(st.avg_delay_ms(), 30.0, 0.01);
}

TEST(FlowStatsTest, DelayPercentiles) {
  FlowStats st;
  net::Packet p;
  p.bytes = 1500;
  for (int i = 1; i <= 100; ++i) {
    const util::Time now = i * kMillisecond;
    p.sent_time = now - i * kMillisecond;  // delay = i ms
    st.on_delivery(p, now);
  }
  EXPECT_NEAR(st.p95_delay_ms(), 95.05, 0.1);
  EXPECT_NEAR(st.median_delay_ms(), 50.5, 0.1);
}

TEST(FlowStatsTest, EmptyFlow) {
  FlowStats st;
  st.finish(kSecond);
  EXPECT_EQ(st.packets(), 0u);
  EXPECT_DOUBLE_EQ(st.avg_tput_mbps(), 0.0);
  // No deliveries -> no delay distribution: NaN, not a fake perfect 0 ms.
  EXPECT_TRUE(std::isnan(st.avg_delay_ms()));
  EXPECT_TRUE(std::isnan(st.median_delay_ms()));
  EXPECT_TRUE(std::isnan(st.p95_delay_ms()));
  EXPECT_TRUE(st.delays_ms().empty());
  EXPECT_EQ(st.window_tputs_mbps().count(), 0u);
}

TEST(FlowStatsTest, FinishBeforeAnyDeliveryIsIdempotent) {
  FlowStats st;
  st.finish(kSecond);
  st.finish(2 * kSecond);  // double finish must not crash or emit windows
  // A delivery after finish() is ignored.
  net::Packet p;
  p.bytes = 1500;
  p.sent_time = 3 * kSecond - 10 * kMillisecond;
  st.on_delivery(p, 3 * kSecond);
  EXPECT_EQ(st.packets(), 0u);
  EXPECT_EQ(st.bytes(), 0u);
  EXPECT_TRUE(std::isnan(st.avg_delay_ms()));
}

TEST(FlowStatsTest, DeliveryExactlyOnWindowBoundary) {
  FlowStats st;  // 100 ms windows
  net::Packet p;
  p.bytes = 1250;  // 1250 B / 100 ms = 0.1 Mbit/s
  // First delivery opens the window at t=1s; the second lands exactly on
  // the boundary and must roll into (and open) the next window, not be
  // double-counted in the first.
  p.sent_time = kSecond - 20 * kMillisecond;
  st.on_delivery(p, kSecond);
  p.sent_time = kSecond + 80 * kMillisecond;
  st.on_delivery(p, kSecond + 100 * kMillisecond);
  st.finish(kSecond + 200 * kMillisecond);

  ASSERT_EQ(st.window_tputs_mbps().count(), 2u);
  const auto wins = st.window_tputs_mbps().samples();
  EXPECT_NEAR(wins[0], 0.1, 1e-9);  // only the first packet
  EXPECT_NEAR(wins[1], 0.1, 1e-9);  // boundary packet, full-window flush
  EXPECT_EQ(st.packets(), 2u);
}

TEST(FlowStatsTest, SinglePacketFlow) {
  FlowStats st;
  net::Packet p;
  p.bytes = 1500;
  p.sent_time = kSecond - 25 * kMillisecond;
  st.on_delivery(p, kSecond);
  st.finish(kSecond + 50 * kMillisecond);

  EXPECT_EQ(st.packets(), 1u);
  // All percentiles of a single sample are that sample.
  EXPECT_DOUBLE_EQ(st.avg_delay_ms(), 25.0);
  EXPECT_DOUBLE_EQ(st.median_delay_ms(), 25.0);
  EXPECT_DOUBLE_EQ(st.p95_delay_ms(), 25.0);
  // last == first: the elapsed-time throughput is undefined; reported as 0.
  EXPECT_DOUBLE_EQ(st.avg_tput_mbps(), 0.0);
  // The partial window still flushes: 1500 B over 50 ms = 0.24 Mbit/s.
  ASSERT_EQ(st.window_tputs_mbps().count(), 1u);
  EXPECT_NEAR(st.window_tputs_mbps().samples()[0], 0.24, 1e-9);
}

// ------------------------------------------------------------- algorithms

TEST(Algorithms, FactoryConstructsAll) {
  for (const auto& name : all_algorithms()) {
    auto cc = make_controller(name, 1);
    ASSERT_NE(cc, nullptr) << name;
    EXPECT_EQ(cc->name(), name == "pcc" ? "pcc" : cc->name());
    EXPECT_GT(cc->pacing_rate(0), 0.0) << name;
  }
  EXPECT_EQ(all_algorithms().size(), 8u);
  EXPECT_THROW(make_controller("quic", 1), std::invalid_argument);
}

// The extras (delay-gradient baseline, hybrid, ABC oracle) construct
// through the same factory but stay out of all_algorithms() so
// paper-figure sweeps keep the paper's competitor set.
TEST(Algorithms, ExtraAlgorithmsConstruct) {
  ASSERT_EQ(extra_algorithms(),
            (std::vector<std::string>{"gcc", "hybrid", "abc"}));
  for (const auto& name : extra_algorithms()) {
    auto cc = make_controller(name, 1);
    ASSERT_NE(cc, nullptr) << name;
    EXPECT_EQ(cc->name(), name);
    EXPECT_GT(cc->pacing_rate(0), 0.0) << name;
  }
  // The hybrid is a PbeSender with the sidecar holding pacing authority.
  auto hybrid = make_controller("hybrid", 1);
  auto& sender = dynamic_cast<pbe::PbeSender&>(*hybrid);
  EXPECT_TRUE(sender.hybrid());
  EXPECT_TRUE(sender.degradation().blending());
  EXPECT_EQ(sender.blend_weight(), 1.0);  // full PHY trust until evidence
}

TEST(Algorithms, PbeNeedsClient) {
  EXPECT_TRUE(needs_pbe_client("pbe"));
  EXPECT_FALSE(needs_pbe_client("bbr"));
  // The hybrid consumes PHY feedback, so it needs the client; the pure
  // delay-gradient baseline is endpoint-only.
  EXPECT_TRUE(needs_pbe_client("hybrid"));
  EXPECT_FALSE(needs_pbe_client("gcc"));
}

// -------------------------------------------------------------- locations

TEST(Locations, PaperMix) {
  int idle = 0, one_cc = 0, two_cc = 0, three_cc = 0, indoor = 0;
  for (int i = 0; i < kNumLocations; ++i) {
    const auto loc = location(i);
    EXPECT_EQ(loc.index, i);
    idle += loc.busy ? 0 : 1;
    one_cc += loc.n_cells == 1;
    two_cc += loc.n_cells == 2;
    three_cc += loc.n_cells == 3;
    indoor += loc.indoor;
    EXPECT_GE(loc.n_cells, 1);
    EXPECT_LE(loc.n_cells, 3);
    EXPECT_LT(loc.rssi_dbm, -80);
    EXPECT_GT(loc.rssi_dbm, -110);
    EXPECT_FALSE(loc.describe().empty());
  }
  // The paper's split: 15 idle / 25 busy links; 10 locations with the
  // single-cell Redmi 8, 15 each with the 2-CC MIX3 and 3-CC S8.
  EXPECT_EQ(idle, 15);
  EXPECT_EQ(one_cc, 10);
  EXPECT_EQ(two_cc, 15);
  EXPECT_EQ(three_cc, 15);
  EXPECT_EQ(indoor, 20);
}

TEST(Locations, ConfigMatchesProfile) {
  const auto loc = location(27);  // three-cell location
  const auto cfg = scenario_config_for(loc);
  EXPECT_EQ(cfg.cells.size(), 3u);
  const auto ue = ue_spec_for(loc);
  EXPECT_EQ(ue.cell_indices.size(), 3u);
  const auto loc1 = location(3);  // single-cell location
  EXPECT_EQ(ue_spec_for(loc1).cell_indices.size(), 1u);
}

// --------------------------------------------------------------- scenario

TEST(Scenario, SingleFlowDelivers) {
  ScenarioConfig cfg;
  cfg.cells = {{10.0, 0.0}};
  Scenario s{cfg};
  s.add_ue(UeSpec{});
  FlowSpec fs;
  fs.algo = "fixed";
  fs.fixed_rate = 8e6;
  fs.stop = kSecond;
  const int f = s.add_flow(fs);
  s.run_until(1200 * kMillisecond);
  s.stats(f).finish(kSecond);
  EXPECT_NEAR(s.stats(f).avg_tput_mbps(), 8.0, 1.0);
  // Idle cell: delay ~ propagation + a couple of subframes.
  EXPECT_LT(s.stats(f).median_delay_ms(), 35.0);
}

TEST(Scenario, TwoFlowsOneDevice) {
  ScenarioConfig cfg;
  cfg.cells = {{10.0, 0.0}};
  Scenario s{cfg};
  s.add_ue(UeSpec{});
  FlowSpec fs;
  fs.algo = "fixed";
  fs.fixed_rate = 5e6;
  fs.stop = kSecond;
  const int f1 = s.add_flow(fs);
  const int f2 = s.add_flow(fs);
  s.run_until(1200 * kMillisecond);
  EXPECT_GT(s.stats(f1).packets(), 300u);
  EXPECT_GT(s.stats(f2).packets(), 300u);
}

TEST(Scenario, UnknownUeThrows) {
  Scenario s{ScenarioConfig{}};
  FlowSpec fs;
  fs.ue = 99;
  EXPECT_THROW(s.add_flow(fs), std::invalid_argument);
}

TEST(Scenario, FixedFlowNeedsRate) {
  Scenario s{ScenarioConfig{}};
  s.add_ue(UeSpec{});
  FlowSpec fs;
  fs.algo = "fixed";
  fs.fixed_rate = 0;
  EXPECT_THROW(s.add_flow(fs), std::invalid_argument);
}

TEST(Scenario, BackgroundTrafficConsumesPrbs) {
  ScenarioConfig cfg;
  cfg.seed = 5;
  cfg.cells = {{10.0, 0.0}};
  Scenario busy{cfg};
  busy.add_ue(UeSpec{});
  BackgroundSpec bg;
  bg.n_users = 4;
  bg.sessions_per_sec = 4.0;
  bg.rate_lo = 5e6;
  bg.rate_hi = 10e6;
  busy.add_background(bg);

  long idle_prbs = 0, sfs = 0;
  busy.bs().set_allocation_observer([&](const mac::AllocationRecord& r) {
    idle_prbs += r.idle_prbs;
    ++sfs;
  });
  busy.run_until(3 * kSecond);
  // Background sessions occupy a noticeable share of the cell.
  EXPECT_LT(static_cast<double>(idle_prbs) / (static_cast<double>(sfs) * 50.0),
            0.9);
}

TEST(Scenario, InternetBottleneckLimitsRate) {
  ScenarioConfig cfg;
  cfg.cells = {{10.0, 0.0}};
  Scenario s{cfg};
  s.add_ue(UeSpec{});
  FlowSpec fs;
  fs.algo = "fixed";
  fs.fixed_rate = 30e6;
  fs.path.internet_rate = 6e6;  // far below the offered load
  fs.stop = 2 * kSecond;
  const int f = s.add_flow(fs);
  s.run_until(2500 * kMillisecond);
  s.stats(f).finish(2 * kSecond);
  EXPECT_NEAR(s.stats(f).avg_tput_mbps(), 6.0, 0.8);
}

TEST(Scenario, PbeFlowGetsClient) {
  ScenarioConfig cfg;
  cfg.cells = {{10.0, 0.0}};
  Scenario s{cfg};
  s.add_ue(UeSpec{});
  FlowSpec fs;
  fs.algo = "pbe";
  const int f = s.add_flow(fs);
  EXPECT_NE(s.pbe_client(f), nullptr);
  FlowSpec other;
  other.algo = "bbr";
  const int g = s.add_flow(other);
  EXPECT_EQ(s.pbe_client(g), nullptr);
}

}  // namespace
}  // namespace pbecc::sim
