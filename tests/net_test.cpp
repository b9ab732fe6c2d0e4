// Unit tests for src/net: event loop, links, and the flow driver
// (pacing, congestion window, delivery-rate samples, loss detection).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/congestion_controller.h"
#include "net/event_loop.h"
#include "net/flow.h"
#include "net/link.h"
#include "net/shard_mailbox.h"

namespace pbecc::net {
namespace {

// ------------------------------------------------------------ event loop

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  while (loop.run_one()) {}
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, TiesAreFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(10, [&order, i] { order.push_back(i); });
  }
  while (loop.run_one()) {}
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, RunUntilAdvancesClock) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(100, [&] { ++fired; });
  loop.schedule_at(500, [&] { ++fired; });
  loop.run_until(200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 200);
  loop.run_until(1000);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), 1000);
}

TEST(EventLoop, PastSchedulingThrows) {
  EventLoop loop;
  loop.schedule_at(100, [] {});
  loop.run_until(100);
  EXPECT_THROW(loop.schedule_at(50, [] {}), std::logic_error);
}

TEST(EventLoop, EventsCanScheduleEvents) {
  EventLoop loop;
  int chain = 0;
  loop.schedule_at(10, [&] {
    ++chain;
    loop.schedule_in(10, [&] { ++chain; });
  });
  loop.run_until(100);
  EXPECT_EQ(chain, 2);
}

// --- run_until barrier contract (DESIGN.md §15). Shard domains step to a
// common barrier time; an event scheduled *at* the barrier by a callback
// *running at* the barrier must still execute inside this step, or the
// domains would disagree about what happened before the exchange.

TEST(EventLoop, RunUntilIncludesEventsScheduledAtEndByEventsAtEnd) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(100, [&] {
    order.push_back(1);
    loop.schedule_at(100, [&] {  // scheduled at end, while running at end
      order.push_back(2);
      loop.schedule_at(100, [&] { order.push_back(3); });  // and again
    });
  });
  loop.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 100);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, RunUntilBarrierLeavesNothingAtOrBeforeEnd) {
  EventLoop loop;
  int before = 0, after = 0;
  loop.schedule_at(50, [&] {
    ++before;
    loop.schedule_at(100, [&] { ++before; });   // exactly at the barrier
    loop.schedule_at(101, [&] { ++after; });    // strictly past it
  });
  loop.run_until(100);
  EXPECT_EQ(before, 2);
  EXPECT_EQ(after, 0);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_until(200);
  EXPECT_EQ(after, 1);
}

TEST(EventLoop, SeqStaysFifoAcrossRunUntilResumption) {
  // Events scheduled at the barrier time *after* run_until(end) returned
  // (the serial barrier phase does exactly this) must run on the next
  // run_until in FIFO order, before any later-time event: the seq counter
  // is monotonic over the loop's lifetime, never reset per run.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(100, [&] { order.push_back(0); });
  loop.run_until(100);
  ASSERT_EQ(order, (std::vector<int>{0}));
  loop.schedule_at(100, [&] { order.push_back(1); });  // at now(), legal
  loop.schedule_at(110, [&] { order.push_back(9); });
  loop.schedule_at(100, [&] { order.push_back(2); });
  loop.run_until(100);  // re-running to the same barrier drains the adds
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  loop.run_until(200);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
}

TEST(EventLoop, RunUntilBeforeNowIsNoOp) {
  EventLoop loop;
  loop.schedule_at(100, [] {});
  loop.run_until(100);
  loop.run_until(50);  // must not rewind the clock
  EXPECT_EQ(loop.now(), 100);
}

// ---------------------------------------------------------- shard mailbox

TEST(ShardMailbox, DrainMergesByTimeSourceSeq) {
  ShardMailbox<int> mb;
  mb.reset(3);
  // Posted in a scrambled order across lanes; the merge key is
  // (time, source, seq), independent of post interleaving across lanes.
  mb.post(2, 50, 20);   // seq 0 in lane 2
  mb.post(0, 50, 0);    // seq 0 in lane 0
  mb.post(1, 10, 10);   // seq 0 in lane 1
  mb.post(0, 50, 1);    // seq 1 in lane 0 — after (50,0,0)
  mb.post(1, 90, 11);
  auto msgs = mb.drain();
  ASSERT_EQ(msgs.size(), 5u);
  std::vector<int> payloads;
  for (const auto& m : msgs) payloads.push_back(m.payload);
  EXPECT_EQ(payloads, (std::vector<int>{10, 0, 1, 20, 11}));
  EXPECT_TRUE(mb.empty());
}

TEST(ShardMailbox, SeqPersistsAcrossDrains) {
  ShardMailbox<int> mb;
  mb.reset(2);
  mb.post(0, 10, 1);
  (void)mb.drain();
  mb.post(0, 10, 2);  // same lane+time in a later round: seq must be larger
  mb.post(0, 10, 3);
  auto msgs = mb.drain();
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_GT(msgs[0].seq, 0u);
  EXPECT_EQ(msgs[0].payload, 2);
  EXPECT_EQ(msgs[1].payload, 3);
}

// ----------------------------------------------------------------- links

TEST(DelayLink, FixedDelay) {
  EventLoop loop;
  std::vector<util::Time> arrivals;
  DelayLink link(loop, 25 * util::kMillisecond,
                 [&](Packet) { arrivals.push_back(loop.now()); });
  loop.schedule_at(0, [&] { link.send(Packet{}); });
  loop.run_until(util::kSecond);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 25 * util::kMillisecond);
}

TEST(DelayLink, JitterNeverReorders) {
  EventLoop loop;
  std::vector<std::uint64_t> seqs;
  DelayLink link(loop, 10 * util::kMillisecond,
                 [&](Packet p) { seqs.push_back(p.seq); },
                 5 * util::kMillisecond, 11);
  for (std::uint64_t i = 0; i < 200; ++i) {
    loop.schedule_at(static_cast<util::Time>(i) * 100, [&link, i] {
      Packet p;
      p.seq = i;
      link.send(p);
    });
  }
  loop.run_until(util::kSecond);
  ASSERT_EQ(seqs.size(), 200u);
  for (std::uint64_t i = 0; i < 200; ++i) EXPECT_EQ(seqs[i], i);
}

// Two jittered links share one loop and their sends interleave, several
// per instant, so deliveries of both links land on the same instants.
// The loop must deliver in (delivery time, global send order) and each
// link in its own send order. The links and the loop are then torn down
// with packets still in flight.
TEST(DelayLink, InterleavedLinksKeepSendOrder) {
  struct Delivery {
    util::Time at;
    std::uint64_t send_order;
    int link;
  };
  std::vector<Delivery> got;
  std::uint64_t sent = 0;
  {
    EventLoop loop;
    DelayLink a(loop, 10 * util::kMillisecond,
                [&](Packet p) { got.push_back({loop.now(), p.seq, 0}); },
                4, 21);
    DelayLink b(loop, 10 * util::kMillisecond,
                [&](Packet p) { got.push_back({loop.now(), p.seq, 1}); },
                4, 22);
    for (util::Time t = 0; t < 400; t += 2) {
      loop.schedule_at(t, [&, t] {
        // a, b, then a or b again: the global send order goes in `seq`.
        for (DelayLink* link : {&a, &b, t % 4 == 0 ? &a : &b}) {
          Packet p;
          p.seq = sent++;
          link->send(p);
        }
      });
    }
    loop.run_until(10 * util::kMillisecond + 300);
    ASSERT_LT(got.size(), sent);  // the rest are still in flight
  }
  ASSERT_GT(got.size(), 100u);
  int shared_instants = 0;
  std::uint64_t last_seq[2] = {0, 0};
  bool seen[2] = {false, false};
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Delivery& d = got[i];
    if (i > 0) {
      const Delivery& prev = got[i - 1];
      EXPECT_TRUE(prev.at < d.at ||
                  (prev.at == d.at && prev.send_order < d.send_order))
          << "delivery " << i;
      if (prev.at == d.at && prev.link != d.link) ++shared_instants;
    }
    const auto l = static_cast<std::size_t>(d.link);
    if (seen[l]) {
      EXPECT_LT(last_seq[l], d.send_order) << "link " << d.link;
    }
    seen[l] = true;
    last_seq[l] = d.send_order;
  }
  EXPECT_GT(shared_instants, 0);
}

TEST(BottleneckLink, SerializationRate) {
  EventLoop loop;
  std::vector<util::Time> arrivals;
  BottleneckLink::Config cfg;
  cfg.rate = 12e6;  // 1500 B => 1 ms each
  cfg.buffer_bytes = 1 << 20;
  BottleneckLink link(loop, cfg, [&](Packet) { arrivals.push_back(loop.now()); });
  loop.schedule_at(0, [&] {
    for (int i = 0; i < 5; ++i) link.send(Packet{});
  });
  loop.run_until(util::kSecond);
  ASSERT_EQ(arrivals.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(arrivals[static_cast<std::size_t>(i)],
              (i + 1) * util::kMillisecond);
  }
}

TEST(BottleneckLink, DropTail) {
  EventLoop loop;
  int delivered = 0;
  BottleneckLink::Config cfg;
  cfg.rate = 12e6;
  cfg.buffer_bytes = 3000;  // two packets
  BottleneckLink link(loop, cfg, [&](Packet) { ++delivered; });
  loop.schedule_at(0, [&] {
    for (int i = 0; i < 10; ++i) link.send(Packet{});
  });
  loop.run_until(util::kSecond);
  // One serializing + two queued survive the burst.
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.drops(), 7u);
}

TEST(BottleneckLink, UnlimitedPassThrough) {
  EventLoop loop;
  std::vector<util::Time> arrivals;
  BottleneckLink::Config cfg;
  cfg.rate = 0;  // unlimited
  cfg.propagation_delay = 7 * util::kMillisecond;
  BottleneckLink link(loop, cfg, [&](Packet) { arrivals.push_back(loop.now()); });
  loop.schedule_at(0, [&] { link.send(Packet{}); });
  loop.run_until(util::kSecond);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 7 * util::kMillisecond);
}

// ------------------------------------------------------------ flow driver

// Loops data packets straight back as ACKs after a fixed RTT.
struct LoopbackHarness {
  EventLoop loop;
  std::unique_ptr<FlowSender> sender;
  FlowReceiver* receiver = nullptr;
  std::unique_ptr<FlowReceiver> receiver_owned;
  util::Duration one_way = 10 * util::kMillisecond;
  std::uint64_t delivered = 0;

  explicit LoopbackHarness(std::unique_ptr<CongestionController> cc,
                           FlowSender::Config cfg = {}) {
    receiver_owned = std::make_unique<FlowReceiver>(
        loop, cfg.id, [this](Ack ack) {
          loop.schedule_in(one_way, [this, ack] { sender->on_ack(ack); });
        });
    receiver = receiver_owned.get();
    receiver->set_delivery_observer([this](const Packet&, util::Time) { ++delivered; });
    sender = std::make_unique<FlowSender>(
        loop, cfg, std::move(cc), [this](Packet pkt) {
          loop.schedule_in(one_way, [this, pkt = std::move(pkt)]() mutable {
            receiver->on_packet(std::move(pkt));
          });
        });
  }
};

TEST(FlowSender, PacesAtConfiguredRate) {
  auto cc = std::make_unique<FixedRateController>(12e6);  // 1 pkt / ms
  LoopbackHarness h{std::move(cc)};
  h.loop.run_until(util::kSecond);
  // ~1000 packets in 1 s at 12 Mbit/s with 1500 B packets.
  EXPECT_NEAR(static_cast<double>(h.delivered), 980.0, 30.0);
}

// Controller with a tiny congestion window to exercise cwnd limiting.
class TinyWindow final : public CongestionController {
 public:
  void on_ack(const AckSample&) override {}
  util::RateBps pacing_rate(util::Time) const override { return 1e9; }
  double cwnd_bytes(util::Time) const override { return 2 * kDefaultMss; }
  std::string name() const override { return "tiny"; }
};

TEST(FlowSender, CwndLimitsInflight) {
  LoopbackHarness h{std::make_unique<TinyWindow>()};
  h.loop.run_until(util::kSecond);
  // 2 packets per RTT (20 ms) => ~100 packets in 1 s.
  EXPECT_NEAR(static_cast<double>(h.delivered), 100.0, 10.0);
  EXPECT_LE(h.sender->bytes_in_flight(), 2u * kDefaultMss);
}

class AckRecorder final : public CongestionController {
 public:
  std::vector<AckSample> acks;
  std::vector<LossSample> losses;
  void on_ack(const AckSample& s) override { acks.push_back(s); }
  void on_loss(const LossSample& s) override { losses.push_back(s); }
  util::RateBps pacing_rate(util::Time) const override { return 12e6; }
  std::string name() const override { return "recorder"; }
};

TEST(FlowSender, AckSampleFields) {
  auto cc = std::make_unique<AckRecorder>();
  auto* rec = cc.get();
  LoopbackHarness h{std::move(cc)};
  h.loop.run_until(500 * util::kMillisecond);
  ASSERT_GT(rec->acks.size(), 100u);
  const auto& s = rec->acks[50];
  EXPECT_EQ(s.rtt, 20 * util::kMillisecond);
  EXPECT_EQ(s.one_way_delay, 10 * util::kMillisecond);
  EXPECT_EQ(s.acked_bytes, kDefaultMss);
  // Delivery rate converges to the actual pacing rate.
  EXPECT_NEAR(rec->acks.back().delivery_rate, 12e6, 2e6);
  EXPECT_EQ(rec->losses.size(), 0u);
}

TEST(FlowSender, StopTimeHonored) {
  FlowSender::Config cfg;
  cfg.stop_time = 100 * util::kMillisecond;
  LoopbackHarness h{std::make_unique<FixedRateController>(12e6), cfg};
  h.loop.run_until(util::kSecond);
  EXPECT_NEAR(static_cast<double>(h.sender->total_sent_bytes()) / kDefaultMss,
              80.0, 25.0);
}

TEST(FlowSender, ThresholdLossDetection) {
  EventLoop loop;
  std::unique_ptr<FlowSender> sender;
  auto cc = std::make_unique<AckRecorder>();
  auto* rec = cc.get();
  FlowReceiver receiver(loop, 0, [&](Ack ack) {
    loop.schedule_in(util::kMillisecond, [&, ack] { sender->on_ack(ack); });
  });
  // Drop every 10th packet on the "wire".
  sender = std::make_unique<FlowSender>(
      loop, FlowSender::Config{}, std::move(cc), [&](Packet pkt) {
        if (pkt.seq % 10 == 9) return;  // lost
        loop.schedule_in(util::kMillisecond, [&, pkt = std::move(pkt)]() mutable {
          receiver.on_packet(std::move(pkt));
        });
      });
  loop.run_until(500 * util::kMillisecond);
  EXPECT_GT(rec->losses.size(), 10u);
  EXPECT_GT(sender->total_lost_packets(), 10u);
  // In-flight accounting survives losses: sender keeps sending.
  EXPECT_GT(rec->acks.size(), 300u);
}

TEST(FlowSender, RtoRecoversFromBlackout) {
  EventLoop loop;
  std::unique_ptr<FlowSender> sender;
  auto cc = std::make_unique<AckRecorder>();
  auto* rec = cc.get();
  bool blackout = true;
  FlowReceiver receiver(loop, 0, [&](Ack ack) {
    loop.schedule_in(util::kMillisecond, [&, ack] { sender->on_ack(ack); });
  });
  sender = std::make_unique<FlowSender>(
      loop, FlowSender::Config{}, std::move(cc), [&](Packet pkt) {
        if (blackout) return;  // everything lost
        loop.schedule_in(util::kMillisecond, [&, pkt = std::move(pkt)]() mutable {
          receiver.on_packet(std::move(pkt));
        });
      });
  loop.run_until(300 * util::kMillisecond);
  loop.schedule_at(loop.now(), [&] { blackout = false; });
  loop.run_until(3 * util::kSecond);
  // The RTO watchdog cleared the stuck window and flow resumed.
  EXPECT_FALSE(rec->losses.empty());
  EXPECT_GT(rec->acks.size(), 100u);
}

TEST(FlowReceiver, EchoesTimestampsAndFeedback) {
  EventLoop loop;
  std::vector<Ack> acks;
  FlowReceiver recv(loop, 3, [&](Ack a) { acks.push_back(a); });
  recv.set_feedback_filler([](const Packet&, util::Time, Ack& ack) {
    ack.pbe_rate_interval_us = 120;
    ack.pbe_internet_bottleneck = true;
  });
  loop.schedule_at(40 * util::kMillisecond, [&] {
    Packet p;
    p.flow = 3;
    p.seq = 9;
    p.sent_time = 5 * util::kMillisecond;
    p.delivered_at_send = 1234;
    recv.on_packet(p);
  });
  loop.run_until(util::kSecond);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].flow, 3u);
  EXPECT_EQ(acks[0].seq, 9u);
  EXPECT_EQ(acks[0].data_sent_time, 5 * util::kMillisecond);
  EXPECT_EQ(acks[0].data_recv_time, 40 * util::kMillisecond);
  EXPECT_EQ(acks[0].delivered_at_send, 1234u);
  EXPECT_EQ(acks[0].pbe_rate_interval_us, 120u);
  EXPECT_TRUE(acks[0].pbe_internet_bottleneck);
  EXPECT_EQ(recv.packets_received(), 1u);
}

}  // namespace
}  // namespace pbecc::net
