// Unit tests for src/mac: schedulers, HARQ, reordering, carrier
// aggregation, control traffic, and the integrated base station.
#include <gtest/gtest.h>

#include <numeric>

#include "decoder/blind_decoder.h"
#include "mac/base_station.h"
#include "mac/carrier_aggregation.h"
#include "mac/control_traffic.h"
#include "mac/harq.h"
#include "mac/reordering_buffer.h"
#include "mac/scheduler.h"
#include "util/stats.h"

namespace pbecc::mac {
namespace {

SchedRequest req(UeId ue, std::int64_t bytes, double bits_per_prb = 1000.0) {
  return SchedRequest{ue, bytes, bits_per_prb};
}

int granted(const std::vector<SchedAllocation>& allocs, UeId ue) {
  for (const auto& a : allocs) {
    if (a.ue == ue) return a.n_prbs;
  }
  return 0;
}

int total(const std::vector<SchedAllocation>& allocs) {
  int t = 0;
  for (const auto& a : allocs) t += a.n_prbs;
  return t;
}

// -------------------------------------------------------------- scheduler

TEST(FairShare, EqualSplitWhenSaturated) {
  FairShareScheduler s;
  const auto allocs = s.allocate(90, {req(1, 1'000'000), req(2, 1'000'000),
                                      req(3, 1'000'000)});
  EXPECT_EQ(granted(allocs, 1), 30);
  EXPECT_EQ(granted(allocs, 2), 30);
  EXPECT_EQ(granted(allocs, 3), 30);
}

TEST(FairShare, SurplusRedistributed) {
  FairShareScheduler s;
  // User 1 wants only 10 PRBs (10 * 1000 bits = 1250 bytes).
  const auto allocs = s.allocate(90, {req(1, 1250), req(2, 1'000'000),
                                      req(3, 1'000'000)});
  EXPECT_EQ(granted(allocs, 1), 10);
  EXPECT_EQ(granted(allocs, 2), 40);
  EXPECT_EQ(granted(allocs, 3), 40);
}

TEST(FairShare, DemandLimited) {
  FairShareScheduler s;
  const auto allocs = s.allocate(100, {req(1, 1250), req(2, 2500)});
  EXPECT_EQ(granted(allocs, 1), 10);
  EXPECT_EQ(granted(allocs, 2), 20);
  EXPECT_EQ(total(allocs), 30);
}

TEST(FairShare, MorePrbsNeverAllocatedThanAvailable) {
  FairShareScheduler s;
  const auto allocs = s.allocate(7, {req(1, 1e6), req(2, 1e6), req(3, 1e6),
                                     req(4, 1e6), req(5, 1e6)});
  EXPECT_LE(total(allocs), 7);
  EXPECT_GE(total(allocs), 5);  // everyone gets at least one when possible
}

TEST(FairShare, ZeroDemandSkipped) {
  FairShareScheduler s;
  const auto allocs = s.allocate(50, {req(1, 0), req(2, 1e6)});
  EXPECT_EQ(granted(allocs, 1), 0);
  EXPECT_EQ(granted(allocs, 2), 50);
}

TEST(FairShare, EmptyRequests) {
  FairShareScheduler s;
  EXPECT_TRUE(s.allocate(50, {}).empty());
}

TEST(DemandPrbs, Rounding) {
  EXPECT_EQ(demand_prbs(req(1, 125, 1000.0)), 1);   // 1000 bits exactly
  EXPECT_EQ(demand_prbs(req(1, 126, 1000.0)), 2);   // 1008 bits
  EXPECT_EQ(demand_prbs(req(1, 0, 1000.0)), 0);
  EXPECT_EQ(demand_prbs(SchedRequest{1, 100, 0.0}), 0);
}

TEST(ProportionalFair, ConvergesNearEqualForEqualRates) {
  ProportionalFairScheduler s;
  std::map<UeId, long> totals;
  for (int sf = 0; sf < 500; ++sf) {
    for (const auto& a : s.allocate(48, {req(1, 1e6), req(2, 1e6), req(3, 1e6)})) {
      totals[a.ue] += a.n_prbs;
    }
  }
  const double avg = (totals[1] + totals[2] + totals[3]) / 3.0;
  for (const auto& [ue, t] : totals) {
    EXPECT_NEAR(static_cast<double>(t), avg, avg * 0.1) << "ue " << ue;
  }
}

TEST(ProportionalFair, FavoursBetterChannelInstantaneously) {
  ProportionalFairScheduler s;
  // First-ever allocation: both users at equal average, user 2 has double
  // the spectral efficiency -> gets served first.
  const auto allocs = s.allocate(4, {req(1, 1e6, 500.0), req(2, 1e6, 1000.0)});
  EXPECT_EQ(granted(allocs, 2), 4);
}

TEST(SchedulerFactory, Names) {
  EXPECT_EQ(make_scheduler("fair-share")->name(), "fair-share");
  EXPECT_EQ(make_scheduler("proportional-fair")->name(), "proportional-fair");
  EXPECT_THROW(make_scheduler("nope"), std::invalid_argument);
}

// ------------------------------------------------------------------- harq

TransportBlock tb(std::uint64_t seq) {
  TransportBlock t;
  t.tb_seq = seq;
  t.n_prbs = 10;
  t.bits = 1000;
  return t;
}

TEST(Harq, ProcessLifecycle) {
  HarqEntity h;
  EXPECT_EQ(h.busy_processes(), 0);
  const auto p = h.free_process();
  ASSERT_TRUE(p.has_value());
  h.start(*p, tb(1), 100);
  EXPECT_EQ(h.busy_processes(), 1);
  EXPECT_FALSE(h.retx_due(100).size());
  const auto done = h.complete(*p);
  EXPECT_EQ(done.tb_seq, 1u);
  EXPECT_EQ(h.busy_processes(), 0);
}

TEST(Harq, RetxScheduledEightSubframesLater) {
  HarqEntity h;
  h.start(0, tb(1), 100);
  EXPECT_TRUE(h.fail(0, 100));
  EXPECT_TRUE(h.retx_due(107).empty());
  const auto due = h.retx_due(108);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], 0);
  EXPECT_EQ(h.block(0).attempt, 1);
}

TEST(Harq, MaxThreeRetransmissions) {
  HarqEntity h;
  h.start(3, tb(9), 0);
  EXPECT_TRUE(h.fail(3, 0));    // attempt 1
  EXPECT_TRUE(h.fail(3, 8));    // attempt 2
  EXPECT_TRUE(h.fail(3, 16));   // attempt 3
  EXPECT_FALSE(h.fail(3, 24));  // exhausted
  const auto dead = h.take_abandoned(3);
  EXPECT_EQ(dead.tb_seq, 9u);
  EXPECT_EQ(h.busy_processes(), 0);
}

TEST(Harq, AllProcessesBusyBlocksNewTbs) {
  HarqEntity h;
  for (int i = 0; i < kHarqProcesses; ++i) {
    const auto p = h.free_process();
    ASSERT_TRUE(p.has_value());
    h.start(*p, tb(static_cast<std::uint64_t>(i)), 0);
  }
  EXPECT_FALSE(h.free_process().has_value());
}

TEST(Harq, MisuseThrows) {
  HarqEntity h;
  EXPECT_THROW(h.complete(0), std::logic_error);
  EXPECT_THROW(h.fail(0, 0), std::logic_error);
  h.start(0, tb(1), 0);
  EXPECT_THROW(h.start(0, tb(2), 0), std::logic_error);
}

// ------------------------------------------------------------- reordering

TEST(Reorder, InOrderPassesThrough) {
  std::vector<std::uint64_t> out;
  ReorderingBuffer rb([&](net::Packet p) { out.push_back(p.seq); });
  for (std::uint64_t i = 0; i < 3; ++i) {
    auto t = tb(i);
    net::Packet pkt;
    pkt.seq = i;
    t.completed_packets.push_back(pkt);
    rb.on_tb_decoded(0, std::move(t));
  }
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(rb.buffered_blocks(), 0u);
}

TEST(Reorder, HoldsUntilGapFilled) {
  std::vector<std::uint64_t> out;
  ReorderingBuffer rb([&](net::Packet p) { out.push_back(p.seq); });
  auto mk = [](std::uint64_t tbseq, std::uint64_t pktseq) {
    auto t = tb(tbseq);
    net::Packet p;
    p.seq = pktseq;
    t.completed_packets.push_back(p);
    return t;
  };
  rb.on_tb_decoded(0, mk(1, 11));  // TB 0 missing (being retransmitted)
  rb.on_tb_decoded(0, mk(2, 12));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(rb.buffered_blocks(), 2u);
  rb.on_tb_decoded(0, mk(0, 10));  // retransmission arrives
  EXPECT_EQ(out, (std::vector<std::uint64_t>{10, 11, 12}));
}

TEST(Reorder, AbandonedTbSkipped) {
  std::vector<std::uint64_t> out;
  ReorderingBuffer rb([&](net::Packet p) { out.push_back(p.seq); });
  auto t1 = tb(1);
  net::Packet p;
  p.seq = 21;
  t1.completed_packets.push_back(p);
  rb.on_tb_decoded(0, std::move(t1));
  EXPECT_TRUE(out.empty());
  rb.on_tb_abandoned(0, 0);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{21}));
  EXPECT_EQ(rb.next_expected(), 2u);
}

TEST(Reorder, StaleDuplicatesIgnored) {
  int delivered = 0;
  ReorderingBuffer rb([&](net::Packet) { ++delivered; });
  auto mk = [](std::uint64_t tbseq) {
    auto t = tb(tbseq);
    t.completed_packets.push_back(net::Packet{});
    return t;
  };
  rb.on_tb_decoded(0, mk(0));
  rb.on_tb_decoded(0, mk(0));  // duplicate
  rb.on_tb_abandoned(0, 0);    // stale abandon
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rb.next_expected(), 1u);
}

TEST(Reorder, TimeoutSkipsStuckGap) {
  using util::kMillisecond;
  std::vector<std::uint64_t> out;
  ReorderingBuffer rb([&](net::Packet p) { out.push_back(p.seq); });
  auto mk = [](std::uint64_t tbseq, std::uint64_t pktseq) {
    auto t = tb(tbseq);
    net::Packet p;
    p.seq = pktseq;
    t.completed_packets.push_back(p);
    return t;
  };
  // TB 0 is lost and its abandon notification never arrives (e.g. wiped by
  // a handover). TBs 1-2 wait behind the gap.
  rb.on_tb_decoded(10 * kMillisecond, mk(1, 11));
  rb.on_tb_decoded(11 * kMillisecond, mk(2, 12));
  rb.expire(50 * kMillisecond);  // before timeout: still waiting
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(rb.expired_skips(), 0u);
  rb.expire(70 * kMillisecond);  // 60 ms after TB 1 arrived: skip the gap
  EXPECT_EQ(out, (std::vector<std::uint64_t>{11, 12}));
  EXPECT_EQ(rb.expired_skips(), 1u);
  EXPECT_EQ(rb.next_expected(), 3u);
  // The late decode of TB 0 is now stale and must not be delivered.
  rb.on_tb_decoded(80 * kMillisecond, mk(0, 10));
  EXPECT_EQ(out, (std::vector<std::uint64_t>{11, 12}));
}

TEST(Reorder, OutOfOrderAcrossTimeoutBoundary) {
  using util::kMillisecond;
  std::vector<std::uint64_t> out;
  ReorderingBuffer rb([&](net::Packet p) { out.push_back(p.seq); });
  auto mk = [](std::uint64_t tbseq, std::uint64_t pktseq) {
    auto t = tb(tbseq);
    net::Packet p;
    p.seq = pktseq;
    t.completed_packets.push_back(p);
    return t;
  };
  // Two independent gaps: 0 (lost forever) and 2 (arrives late but within
  // its own timeout, measured from when TB 3 started waiting).
  rb.on_tb_decoded(0, mk(1, 11));
  rb.on_tb_decoded(55 * kMillisecond, mk(3, 13));
  rb.expire(60 * kMillisecond);  // gap 0 expires (waited 60 ms behind TB 1)
  EXPECT_EQ(out, (std::vector<std::uint64_t>{11}));
  EXPECT_EQ(rb.next_expected(), 2u);
  rb.expire(80 * kMillisecond);  // TB 3 has only waited 25 ms: gap 2 lives
  EXPECT_EQ(out, (std::vector<std::uint64_t>{11}));
  rb.on_tb_decoded(90 * kMillisecond, mk(2, 12));  // late retransmission
  EXPECT_EQ(out, (std::vector<std::uint64_t>{11, 12, 13}));
  EXPECT_EQ(rb.expired_skips(), 1u);
}

TEST(Reorder, DuplicateSequenceNumbersKeepFirstCopy) {
  std::vector<std::uint64_t> out;
  ReorderingBuffer rb([&](net::Packet p) { out.push_back(p.seq); });
  auto mk = [](std::uint64_t tbseq, std::uint64_t pktseq) {
    auto t = tb(tbseq);
    net::Packet p;
    p.seq = pktseq;
    t.completed_packets.push_back(p);
    return t;
  };
  // A spurious HARQ retransmission decodes TB 1 twice with different
  // payload snapshots while it waits behind gap 0: first copy wins.
  rb.on_tb_decoded(0, mk(1, 11));
  rb.on_tb_decoded(1, mk(1, 99));
  rb.on_tb_decoded(2, mk(0, 10));
  EXPECT_EQ(out, (std::vector<std::uint64_t>{10, 11}));
  EXPECT_EQ(rb.buffered_blocks(), 0u);
}

TEST(Reorder, ExpireSkipsMultipleConsecutiveGaps) {
  using util::kMillisecond;
  std::vector<std::uint64_t> out;
  ReorderingBuffer rb([&](net::Packet p) { out.push_back(p.seq); });
  auto mk = [](std::uint64_t tbseq, std::uint64_t pktseq) {
    auto t = tb(tbseq);
    net::Packet p;
    p.seq = pktseq;
    t.completed_packets.push_back(p);
    return t;
  };
  // TBs 0-4 and 6-8 all lost without abandon notifications (handover wipe):
  // the buffer holds 5 and 9 behind two separate head-of-line gaps.
  rb.on_tb_decoded(0, mk(5, 15));
  rb.on_tb_decoded(1 * kMillisecond, mk(9, 19));
  rb.expire(59 * kMillisecond);
  EXPECT_TRUE(out.empty());
  // One expire() sweep must clear *both* stuck gaps (each TB has waited
  // past the timeout), not just the first.
  rb.expire(70 * kMillisecond);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{15, 19}));
  EXPECT_EQ(rb.expired_skips(), 2u);
  EXPECT_EQ(rb.next_expected(), 10u);
  EXPECT_EQ(rb.buffered_blocks(), 0u);
}

TEST(Reorder, AbandonedThenLateDecodeRescued) {
  std::vector<std::uint64_t> out;
  ReorderingBuffer rb([&](net::Packet p) { out.push_back(p.seq); });
  auto mk = [](std::uint64_t tbseq, std::uint64_t pktseq) {
    auto t = tb(tbseq);
    net::Packet p;
    p.seq = pktseq;
    t.completed_packets.push_back(p);
    return t;
  };
  // TB 1 is abandoned at handover while its final retransmission is still
  // in flight — which then decodes. The data exists: rescue it rather than
  // recording a loss. (TB 0 is still missing, so 1 sits buffered.)
  rb.on_tb_abandoned(0, 1);
  rb.on_tb_decoded(1, mk(1, 11));
  EXPECT_TRUE(out.empty());
  rb.on_tb_decoded(2, mk(0, 10));
  EXPECT_EQ(out, (std::vector<std::uint64_t>{10, 11}));
}

TEST(Reorder, SpuriousAbandonAfterDecodeKeepsData) {
  std::vector<std::uint64_t> out;
  ReorderingBuffer rb([&](net::Packet p) { out.push_back(p.seq); });
  auto mk = [](std::uint64_t tbseq, std::uint64_t pktseq) {
    auto t = tb(tbseq);
    net::Packet p;
    p.seq = pktseq;
    t.completed_packets.push_back(p);
    return t;
  };
  // Decode first, spurious abandon second (reversed race): the decoded
  // packets must survive and deliver once the gap fills.
  rb.on_tb_decoded(0, mk(1, 11));
  rb.on_tb_abandoned(1, 1);
  rb.on_tb_decoded(2, mk(0, 10));
  EXPECT_EQ(out, (std::vector<std::uint64_t>{10, 11}));
}

TEST(Reorder, DeliveryOrderedAfterSkip) {
  using util::kMillisecond;
  std::vector<std::uint64_t> out;
  ReorderingBuffer rb([&](net::Packet p) { out.push_back(p.seq); });
  auto mk = [](std::uint64_t tbseq, std::uint64_t pktseq) {
    auto t = tb(tbseq);
    net::Packet p;
    p.seq = pktseq;
    t.completed_packets.push_back(p);
    return t;
  };
  // Gap 0 expires; the cursor jumps to 1. Later TBs must still come out in
  // sequence order, including one that arrives after the skip.
  rb.on_tb_decoded(0, mk(1, 11));
  rb.on_tb_decoded(30 * kMillisecond, mk(3, 13));
  rb.expire(60 * kMillisecond);  // skip gap 0, deliver 1; 3 (30 ms old)
                                 // keeps waiting on gap 2
  EXPECT_EQ(out, (std::vector<std::uint64_t>{11}));
  rb.on_tb_decoded(61 * kMillisecond, mk(2, 12));
  EXPECT_EQ(out, (std::vector<std::uint64_t>{11, 12, 13}));
  EXPECT_EQ(rb.next_expected(), 4u);
}

// --------------------------------------------------- carrier aggregation

TEST(CarrierAggregation, QueueTriggeredActivation) {
  CaManager ca({1, 2, 3});
  EXPECT_EQ(ca.num_active(), 1u);
  // A queue at the threshold from the first subframe on, and no PRBs held:
  // the second cell activates once the queue has stood the delay.
  const util::Time first = util::kSubframe;
  util::Time t = 0;
  util::Time activated_at = -1;
  for (int i = 0; i < 100; ++i) {
    t += util::kSubframe;
    if (ca.on_subframe(t, kCaActivationQueueBytes, 0, 0, 50).activated) {
      if (activated_at < 0) activated_at = t;
    }
  }
  EXPECT_EQ(activated_at, first + kCaActivationDelay);
  EXPECT_EQ(ca.num_active(), 2u);
  EXPECT_TRUE(ca.ever_aggregated());
  EXPECT_EQ(ca.active_cells()[1], 2u);
}

TEST(CarrierAggregation, UtilizationTriggeredActivation) {
  // No queue at all, but the user holds ~90% of the serving cell.
  CaManager ca({1, 2});
  util::Time t = 0;
  bool activated = false;
  for (int i = 0; i < 400 && !activated; ++i) {
    t += util::kSubframe;
    activated = ca.on_subframe(t, 0, 0, 45, 50).activated;
  }
  EXPECT_TRUE(activated);
}

TEST(CarrierAggregation, IdleSecondaryDeactivated) {
  CaManager ca({1, 2});
  util::Time t = 0;
  while (ca.num_active() == 1) {
    t += util::kSubframe;
    ca.on_subframe(t, kCaActivationQueueBytes, 20, 40, 50);
    ASSERT_LT(t, util::kSecond);
  }
  // Queue gone, secondary unused.
  bool deactivated = false;
  for (int i = 0; i < 2000 && !deactivated; ++i) {
    t += util::kSubframe;
    deactivated = ca.on_subframe(t, 0, 0, 5, 100).deactivated;
  }
  EXPECT_TRUE(deactivated);
  EXPECT_EQ(ca.num_active(), 1u);
}

TEST(CarrierAggregation, NeverExceedsConfiguredCells) {
  CaManager ca({7});
  util::Time t = 0;
  for (int i = 0; i < 100; ++i) {
    t += util::kSubframe;
    EXPECT_FALSE(ca.on_subframe(t, 1 << 20, 0, 50, 50).activated);
  }
  EXPECT_EQ(ca.num_active(), 1u);
  EXPECT_FALSE(ca.ever_aggregated());
}

TEST(CarrierAggregation, EmptyCellListThrows) {
  EXPECT_THROW(CaManager({}), std::invalid_argument);
}

// --------------------------------------------------------- control traffic

TEST(ControlTraffic, RateMatchesConfig) {
  ControlTrafficConfig cfg;
  cfg.users_per_subframe = 0.4;
  cfg.seed = 5;
  ControlTrafficGenerator gen{cfg};
  double grants = 0;
  const int n = 20000;
  for (int sf = 0; sf < n; ++sf) grants += static_cast<double>(gen.tick(sf).size());
  // Slightly above 0.4/sf because a minority of sessions span subframes.
  EXPECT_NEAR(grants / n, 0.42, 0.05);
}

TEST(ControlTraffic, MostGrantsAreCanonical) {
  ControlTrafficConfig cfg;
  cfg.users_per_subframe = 1.0;
  cfg.canonical_fraction = 0.9;
  ControlTrafficGenerator gen{cfg};
  int canonical = 0, totalg = 0;
  for (int sf = 0; sf < 5000; ++sf) {
    for (const auto& g : gen.tick(sf)) {
      ++totalg;
      canonical += g.n_prbs == 4 ? 1 : 0;
      EXPECT_GE(g.rnti, phy::kMinCRnti);
      EXPECT_LE(g.rnti, phy::kMaxCRnti);
      EXPECT_GT(g.n_prbs, 0);
    }
  }
  EXPECT_GT(static_cast<double>(canonical) / totalg, 0.8);
}

// ------------------------------------------------------------ base station

struct BsHarness {
  net::EventLoop loop;
  std::unique_ptr<BaseStation> bs;
  std::vector<net::Packet> delivered;

  explicit BsHarness(std::vector<phy::CellConfig> cells = {{1, 10.0}},
                     BaseStationConfig cfg = {}) {
    cfg.control_traffic.users_per_subframe = 0;  // quiet unless asked
    bs = std::make_unique<BaseStation>(loop, std::move(cells), cfg);
  }

  void add_default_ue(UeId id = 1, double rssi = -92.0,
                      std::vector<phy::CellId> cells = {1}) {
    UeConfig cfg;
    cfg.id = id;
    cfg.rnti = static_cast<phy::Rnti>(0x100 + id);
    cfg.aggregated_cells = std::move(cells);
    cfg.channel.trace = phy::MobilityTrace::stationary(rssi);
    cfg.channel.seed = 17 + id;
    bs->add_ue(cfg, [this](net::Packet p) { delivered.push_back(p); });
  }

  void enqueue_n(UeId ue, int n, std::uint64_t first_seq = 0) {
    for (int i = 0; i < n; ++i) {
      net::Packet p;
      p.flow = 1;
      p.seq = first_seq + static_cast<std::uint64_t>(i);
      p.sent_time = loop.now();
      bs->enqueue(ue, p);
    }
  }
};

TEST(BaseStation, DeliversInOrder) {
  BsHarness h;
  h.add_default_ue();
  h.bs->start();
  h.loop.schedule_at(10 * util::kMillisecond, [&] { h.enqueue_n(1, 200); });
  h.loop.run_until(util::kSecond);
  ASSERT_EQ(h.delivered.size(), 200u);
  for (std::uint64_t i = 0; i < 200; ++i) EXPECT_EQ(h.delivered[i].seq, i);
}

TEST(BaseStation, DeliveryTakesAtLeastOneSubframe) {
  BsHarness h;
  h.add_default_ue();
  h.bs->start();
  h.loop.schedule_at(10 * util::kMillisecond + 500, [&] { h.enqueue_n(1, 1); });
  h.loop.run_until(util::kSecond);
  ASSERT_EQ(h.delivered.size(), 1u);
  // Enqueued mid-subframe 10; scheduled in subframe 11; decoded at 12 ms.
  EXPECT_GE(h.delivered[0].recv_time, 0);  // recv_time set by receiver layer
  EXPECT_GE(h.loop.now(), 12 * util::kMillisecond);
}

TEST(BaseStation, QueueDropsWhenFull) {
  BsHarness h;
  UeConfig cfg;
  cfg.id = 1;
  cfg.rnti = 0x101;
  cfg.aggregated_cells = {1};
  cfg.queue_capacity_bytes = 10 * 1500;
  cfg.channel.trace = phy::MobilityTrace::stationary(-92);
  int drops = 0;
  h.bs->set_drop_handler([&](UeId, const net::Packet&) { ++drops; });
  h.bs->add_ue(cfg, [&](net::Packet p) { h.delivered.push_back(p); });
  h.bs->start();
  h.loop.schedule_at(5 * util::kMillisecond, [&] { h.enqueue_n(1, 50); });
  h.loop.run_until(util::kSecond);
  EXPECT_EQ(drops, 40);
  EXPECT_EQ(h.delivered.size(), 10u);
}

TEST(BaseStation, AllocationRecordsConsistent) {
  BsHarness h;
  h.add_default_ue();
  std::vector<AllocationRecord> records;
  h.bs->set_allocation_observer([&](const AllocationRecord& r) {
    records.push_back(r);
  });
  h.bs->start();
  h.loop.schedule_at(5 * util::kMillisecond, [&] { h.enqueue_n(1, 500); });
  h.loop.run_until(200 * util::kMillisecond);
  ASSERT_FALSE(records.empty());
  const int cell_prbs = phy::CellConfig{1, 10.0}.n_prbs();
  bool saw_data = false;
  for (const auto& r : records) {
    int used = r.control_prbs + r.retx_prbs;
    for (const auto& a : r.data_allocs) used += a.n_prbs;
    EXPECT_EQ(used + r.idle_prbs, cell_prbs);
    saw_data |= !r.data_allocs.empty();
  }
  EXPECT_TRUE(saw_data);
}

TEST(BaseStation, PdcchObserverSeesOwnDci) {
  BsHarness h;
  h.add_default_ue();
  decoder::BlindDecoder probe{phy::CellConfig{1, 10.0}};
  int own_msgs = 0;
  h.bs->add_pdcch_batch_observer([&](const std::vector<phy::PdcchSubframe>& sfs) {
    for (const auto& sf : sfs) {
      for (const auto& dci : probe.decode(sf)) {
        own_msgs += dci.rnti == 0x101 ? 1 : 0;
      }
    }
  });
  h.bs->start();
  h.loop.schedule_at(5 * util::kMillisecond, [&] { h.enqueue_n(1, 500); });
  h.loop.run_until(300 * util::kMillisecond);
  EXPECT_GT(own_msgs, 50);
}

TEST(BaseStation, FairAcrossBackloggedUsers) {
  BsHarness h;
  h.add_default_ue(1);
  h.add_default_ue(2);
  std::map<UeId, long> prbs;
  h.bs->set_allocation_observer([&](const AllocationRecord& r) {
    for (const auto& a : r.data_allocs) prbs[a.ue] += a.n_prbs;
  });
  h.bs->start();
  // Keep both users permanently backlogged.
  for (int ms = 5; ms < 2000; ms += 10) {
    h.loop.schedule_at(ms * util::kMillisecond, [&] {
      h.enqueue_n(1, 30);
      h.enqueue_n(2, 30);
    });
  }
  h.loop.run_until(2 * util::kSecond);
  const double a = static_cast<double>(prbs[1]);
  const double b = static_cast<double>(prbs[2]);
  const double alloc_arr[] = {a, b};
  EXPECT_GT(util::jain_index(alloc_arr), 0.99);
}

TEST(BaseStation, CarrierAggregationEndToEnd) {
  BsHarness h{{{1, 10.0}, {2, 10.0}}};
  UeConfig cfg;
  cfg.id = 1;
  cfg.rnti = 0x101;
  cfg.aggregated_cells = {1, 2};
  cfg.channel.trace = phy::MobilityTrace::stationary(-92);
  cfg.channel.seed = 3;
  h.bs->add_ue(cfg, [&](net::Packet p) { h.delivered.push_back(p); });
  h.bs->start();
  EXPECT_EQ(h.bs->ca(1).num_active(), 1u);
  // Saturating load -> deep queue -> secondary activates.
  for (int ms = 5; ms < 1000; ms += 2) {
    h.loop.schedule_at(ms * util::kMillisecond, [&] { h.enqueue_n(1, 20); });
  }
  h.loop.run_until(util::kSecond);
  EXPECT_EQ(h.bs->ca(1).num_active(), 2u);
  EXPECT_TRUE(h.bs->ca(1).ever_aggregated());
}

TEST(BaseStation, RetransmissionsHappen) {
  BsHarness h;
  h.add_default_ue(1, -110.0);  // weak signal: high residual BER
  h.bs->start();
  for (int ms = 5; ms < 3000; ms += 5) {
    h.loop.schedule_at(ms * util::kMillisecond, [&] { h.enqueue_n(1, 15); });
  }
  h.loop.run_until(3 * util::kSecond);
  EXPECT_GT(h.bs->total_tbs_sent(), 100u);
  EXPECT_GT(h.bs->total_tb_errors(), 0u);
  // Packets survive via HARQ: deliveries continue despite the errors.
  // (-110 dBm leaves only ~CQI 3-4: roughly 3 kbit/subframe of capacity.)
  EXPECT_GT(h.delivered.size(), 400u);
}

TEST(BaseStation, ChannelStateDefaultBeforeFirstTick) {
  BsHarness h;
  h.add_default_ue();
  const auto s = h.bs->channel_state(1, 1);
  EXPECT_GT(s.cqi, 0);  // neutral default, no throw
}

TEST(BaseStation, HandoverEvictsDepartedCellState) {
  BsHarness h{{{1, 10.0}, {2, 10.0}, {3, 10.0}}};
  h.add_default_ue(1, -92.0, {1, 2});
  EXPECT_EQ(h.bs->ue_tracked_cells(1), 2u);
  h.bs->start();
  h.loop.schedule_at(5 * util::kMillisecond, [&] { h.enqueue_n(1, 300); });
  h.loop.run_until(100 * util::kMillisecond);
  // Hand over to cell 3 only: per-cell HARQ/channel state for cells 1-2
  // must be evicted, not accumulated — a UE churning through a city of
  // cells would otherwise grow its maps forever.
  h.bs->handover(1, {3});
  EXPECT_EQ(h.bs->ue_tracked_cells(1), 1u);
  h.loop.run_until(200 * util::kMillisecond);
  EXPECT_EQ(h.bs->ue_tracked_cells(1), 1u);
  // Repeated handover cycles stay flat.
  for (int i = 0; i < 10; ++i) {
    h.bs->handover(1, {static_cast<phy::CellId>(1 + i % 3),
                       static_cast<phy::CellId>(1 + (i + 1) % 3)});
    EXPECT_EQ(h.bs->ue_tracked_cells(1), 2u);
  }
  // Delivery still works on the final cell pair.
  const auto before = h.delivered.size();
  h.loop.schedule_at(210 * util::kMillisecond, [&] { h.enqueue_n(1, 50, 300) ; });
  h.loop.run_until(400 * util::kMillisecond);
  EXPECT_GT(h.delivered.size(), before);
}

TEST(BaseStation, RemoveUeSafeWithInFlightDeliveries) {
  BsHarness h;
  h.add_default_ue(1);
  h.add_default_ue(2);
  EXPECT_EQ(h.bs->num_ues(), 2u);
  h.bs->start();
  h.loop.schedule_at(5 * util::kMillisecond, [&] {
    h.enqueue_n(1, 100);
    h.enqueue_n(2, 100);
  });
  // Remove UE 1 right after a tick: decode/abandon callbacks for its TBs
  // are already scheduled one subframe out and must become no-ops instead
  // of touching freed state.
  h.loop.schedule_at(20 * util::kMillisecond + 1, [&] { h.bs->remove_ue(1); });
  h.loop.run_until(util::kSecond);
  EXPECT_EQ(h.bs->num_ues(), 1u);
  EXPECT_THROW(h.bs->enqueue(1, net::Packet{}), std::out_of_range);
  // UE 2 is unaffected and fully served.
  EXPECT_GE(h.delivered.size(), 100u);
  // Removing an unknown UE is a harmless no-op; the id can then be reused.
  h.bs->remove_ue(1);
  h.add_default_ue(1);
  EXPECT_EQ(h.bs->num_ues(), 2u);
}

// ------------------------------------ cross-shard migration (DESIGN.md §15)

TEST(Reorder, SnapshotRestoreCarriesResidue) {
  // A UE migrating with a head-of-line gap must carry the packets queued
  // behind it; dropping the residue at the handover would lose them.
  std::vector<std::uint64_t> src_out;
  ReorderingBuffer src([&](net::Packet p) { src_out.push_back(p.seq); });
  auto mk = [](std::uint64_t tbseq, std::uint64_t pktseq) {
    auto t = tb(tbseq);
    net::Packet p;
    p.seq = pktseq;
    t.completed_packets.push_back(p);
    return t;
  };
  src.on_tb_decoded(100, mk(1, 11));  // TB 0 missing: both held
  src.on_tb_decoded(200, mk(2, 12));
  ASSERT_TRUE(src_out.empty());

  std::vector<std::uint64_t> dst_out;
  ReorderingBuffer dst([&](net::Packet p) { dst_out.push_back(p.seq); });
  dst.restore(src.snapshot());
  EXPECT_EQ(dst.next_expected(), 0u);
  EXPECT_EQ(dst.buffered_blocks(), 2u);
  // The gap resolves (abandon notification) after the move: the carried
  // residue drains in order, with `since` stamps intact for the timer.
  dst.on_tb_abandoned(300, 0);
  EXPECT_EQ(dst_out, (std::vector<std::uint64_t>{11, 12}));
  EXPECT_EQ(dst.buffered_blocks(), 0u);
}

TEST(CarrierAggregation, RestoreHistoryIsSticky) {
  CaManager fresh({1, 2});
  EXPECT_FALSE(fresh.ever_aggregated());
  fresh.restore_history(true);
  EXPECT_TRUE(fresh.ever_aggregated());
  fresh.restore_history(false);  // OR-semantics: history never un-happens
  EXPECT_TRUE(fresh.ever_aggregated());
}

TEST(BaseStation, HandoverPreservesCaHistory) {
  // PR-4 regression: handover() rebuilt the CaManager for the new cell
  // set, silently zeroing ever_aggregated — the Fig-15 statistic — for
  // every UE that ever moved.
  BsHarness h{{{1, 10.0}, {2, 10.0}}};
  UeConfig cfg;
  cfg.id = 1;
  cfg.rnti = 0x101;
  cfg.aggregated_cells = {1, 2};
  cfg.channel.trace = phy::MobilityTrace::stationary(-92);
  cfg.channel.seed = 3;
  h.bs->add_ue(cfg, [&](net::Packet p) { h.delivered.push_back(p); });
  h.bs->start();
  for (int ms = 5; ms < 1000; ms += 2) {
    h.loop.schedule_at(ms * util::kMillisecond, [&] { h.enqueue_n(1, 20); });
  }
  h.loop.run_until(util::kSecond);
  ASSERT_TRUE(h.bs->ca(1).ever_aggregated());
  h.bs->handover(1, {2, 1});
  EXPECT_TRUE(h.bs->ca(1).ever_aggregated());
}

TEST(BaseStation, ExtractUeAbandonsInFlightSynchronously) {
  BsHarness h;
  // Weak signal so TB errors occur; a failed block then sits on its HARQ
  // process awaiting retransmission for 8 subframes — extract inside that
  // window to catch a block genuinely in flight.
  h.add_default_ue(1, -110.0);
  h.bs->start();
  h.loop.schedule_at(5 * util::kMillisecond, [&] { h.enqueue_n(1, 600); });
  long t = 30;
  while (h.bs->total_tb_errors() == 0 && t < 5000) {
    h.loop.run_until(++t * util::kMillisecond);
  }
  ASSERT_GT(h.bs->total_tb_errors(), 0u) << "no TB error within 5 s";
  const auto abandoned_before = h.bs->total_tbs_abandoned();
  UeMigration m = h.bs->extract_ue(1);
  // In-flight blocks were abandoned at extract time — synchronously, not
  // via scheduled callbacks that would no-op once the UE is gone.
  EXPECT_GT(h.bs->total_tbs_abandoned(), abandoned_before);
  EXPECT_GT(m.next_tb_seq, 0u);          // seq cursor travels
  EXPECT_FALSE(m.queue.empty());         // backlog travels
  EXPECT_GT(m.queue_bytes, 0);
  EXPECT_EQ(h.bs->num_ues(), 0u);
  EXPECT_THROW(h.bs->enqueue(1, net::Packet{}), std::out_of_range);
  EXPECT_THROW(h.bs->extract_ue(1), std::out_of_range);
}

TEST(BaseStation, MigrationRoundTripKeepsInOrderDelivery) {
  // Full extract→admit across two base stations on one clock: delivery
  // stays strictly in order across the move and the carried backlog is
  // fully served by the target.
  net::EventLoop loop;
  BaseStationConfig quiet;
  quiet.control_traffic.users_per_subframe = 0;
  BaseStation bs1(loop, {{1, 10.0}}, quiet);
  BaseStation bs2(loop, {{1, 10.0}, {2, 10.0}}, quiet);
  std::vector<std::uint64_t> seqs;
  UeConfig cfg;
  cfg.id = 7;
  cfg.rnti = 0x107;
  cfg.aggregated_cells = {1};
  cfg.channel.trace = phy::MobilityTrace::stationary(-92);
  cfg.channel.seed = 17;
  bs1.add_ue(cfg, [&](net::Packet p) { seqs.push_back(p.seq); });
  bs1.start();
  bs2.start();
  loop.schedule_at(5 * util::kMillisecond, [&] {
    for (int i = 0; i < 400; ++i) {
      net::Packet p;
      p.flow = 1;
      p.seq = static_cast<std::uint64_t>(i);
      p.sent_time = loop.now();
      bs1.enqueue(7, p);
    }
  });
  loop.schedule_at(50 * util::kMillisecond + 1, [&] {
    UeMigration m = bs1.extract_ue(7);
    bs2.admit_ue(std::move(m), {2, 1},
                 [&](net::Packet p) { seqs.push_back(p.seq); });
  });
  loop.run_until(3 * util::kSecond);
  // Some packets riding abandoned TBs are lost at the move; everything
  // else arrives exactly once, in order, ending with the last packet.
  ASSERT_FALSE(seqs.empty());
  EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
  EXPECT_EQ(std::adjacent_find(seqs.begin(), seqs.end()), seqs.end());
  EXPECT_EQ(seqs.back(), 399u);
  EXPECT_GT(seqs.size(), 350u);
  EXPECT_EQ(bs2.queue_bytes(7), 0);
}

TEST(BaseStation, AdmitUeValidates) {
  BsHarness h;
  h.add_default_ue(1);
  UeMigration m = h.bs->extract_ue(1);
  EXPECT_THROW(h.bs->admit_ue(m, {9}, [](net::Packet) {}),
               std::invalid_argument);  // unknown cell
  h.bs->admit_ue(m, {1}, [](net::Packet) {});
  EXPECT_THROW(h.bs->admit_ue(m, {1}, [](net::Packet) {}),
               std::invalid_argument);  // duplicate id
}

// --------------------------------------- aggregate background (city scale)

TEST(AggregateTraffic, GrantsBoundedAndDeterministic) {
  AggregateTrafficConfig cfg;
  cfg.sessions_per_sec = 50;
  cfg.seed = 42;
  AggregateTraffic a(1, cfg);
  AggregateTraffic b(1, cfg);
  int peak_sessions = 0;
  for (std::int64_t sf = 0; sf < 2000; ++sf) {
    const auto ga = a.tick(sf, 50, 1);
    const auto gb = b.tick(sf, 50, 1);
    int prbs = 0;
    for (const auto& g : ga) {
      prbs += g.n_prbs;
      EXPECT_GT(g.n_prbs, 0);
      EXPECT_GE(g.rnti, 0xC000u);  // aggregate RNTI space
    }
    EXPECT_LE(prbs, 50);
    // Same seed, same cell -> byte-identical session schedule.
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t i = 0; i < ga.size(); ++i) {
      EXPECT_EQ(ga[i].rnti, gb[i].rnti);
      EXPECT_EQ(ga[i].n_prbs, gb[i].n_prbs);
    }
    peak_sessions = std::max(peak_sessions, a.active_sessions());
  }
  EXPECT_GT(peak_sessions, 0);
  EXPECT_LE(peak_sessions, kAggregateMaxSessions);
}

TEST(BaseStation, AggregateTrafficContendsWithRealUsers) {
  // The synthetic population must show up exactly where background UEs
  // would: PRB occupancy (less room for the foreground user) and the
  // active-user count N of Eqns 1-2.
  BsHarness loaded;
  loaded.bs->set_aggregate_traffic(1, [] {
    AggregateTrafficConfig c;
    c.sessions_per_sec = 40;
    c.rate_lo_bps = 4e6;
    c.rate_hi_bps = 12e6;
    c.seed = 7;
    return c;
  }());
  loaded.add_default_ue(1);
  BsHarness quiet;
  quiet.add_default_ue(1);
  for (BsHarness* h : {&loaded, &quiet}) {
    h->bs->start();
    for (int ms = 5; ms < 2000; ms += 2) {
      h->loop.schedule_at(ms * util::kMillisecond,
                          [h] { h->enqueue_n(1, 20); });
    }
    h->loop.run_until(2 * util::kSecond);
  }
  EXPECT_LT(loaded.delivered.size(), quiet.delivered.size());
  EXPECT_GT(loaded.delivered.size(), 0u);
  EXPECT_GT(loaded.bs->ground_truth(1).at(0).active_users, 1);
  EXPECT_THROW(loaded.bs->set_aggregate_traffic(9, AggregateTrafficConfig{}),
               std::invalid_argument);
}

TEST(BaseStation, InvalidConfigThrows) {
  net::EventLoop loop;
  EXPECT_THROW(BaseStation(loop, {}, BaseStationConfig{}), std::invalid_argument);
  BsHarness h;
  UeConfig bad;
  bad.id = 9;
  bad.aggregated_cells = {};
  EXPECT_THROW(h.bs->add_ue(bad, [](net::Packet) {}), std::invalid_argument);
  h.add_default_ue(1);
  UeConfig dup;
  dup.id = 1;
  dup.aggregated_cells = {1};
  EXPECT_THROW(h.bs->add_ue(dup, [](net::Packet) {}), std::invalid_argument);
}

}  // namespace
}  // namespace pbecc::mac
