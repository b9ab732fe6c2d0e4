// Unit tests for src/net: event loop, links, and the flow driver
// (pacing, congestion window, delivery-rate samples, loss detection).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/congestion_controller.h"
#include "net/event_loop.h"
#include "net/flow.h"
#include "net/in_order_stream.h"
#include "net/link.h"
#include "net/shard_mailbox.h"
#include "util/rng.h"

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

// ------------------------------------------------------- in-order stream

// What a run dispatched, in order: (time, tag) per item or plain event.
using Dispatches = std::vector<std::pair<util::Time, int>>;

// The reference an InOrderStream must match: one schedule_at per item.
class OneEventPerItem {
 public:
  OneEventPerItem(EventLoop& loop, std::function<void(int)> sink)
      : loop_(loop), sink_(std::move(sink)) {}
  void send(util::Time t, int item) {
    loop_.schedule_at(t, [this, item] { sink_(item); });
  }

 private:
  EventLoop& loop_;
  std::function<void(int)> sink_;
};

struct Script {
  Dispatches log;
  int before_tail = 0;  // sends due before an item already on that stream
  int self_sends = 0;   // sends by stream A's own sink
  int at_barrier = 0;   // items dispatched exactly at a run_until end
};

// A seeded random script over two streams. A driver event recurring at
// colliding times sends on A and B, at times that are sometimes before the
// stream's tail (the ACK a feedback-delay spike overtakes), and schedules
// plain events at the same times; A's sink sometimes sends on A again.
// The main loop steps through run_until barriers and adds work at each
// barrier time after run_until returns. Every decision is drawn at
// dispatch, so two runs draw the same numbers only while they dispatch in
// the same order.
template <class Stream>
Script run_script(std::uint64_t seed) {
  EventLoop loop;
  util::Rng rng(seed);
  Script out;
  int next_tag = 0;
  util::Time end = 0;
  util::Time tail[2] = {0, 0};
  const auto logged = [&](int tag) {
    out.log.emplace_back(loop.now(), tag);
    if (loop.now() == end) ++out.at_barrier;
  };
  Stream a(loop, [&](int tag) {
    logged(tag);
    if (rng.bernoulli(0.25)) {
      ++out.self_sends;
      const util::Time t = loop.now() + rng.uniform_int(0, 2);
      out.before_tail += t < tail[0];
      tail[0] = std::max(tail[0], t);
      a.send(t, next_tag++);
    }
  });
  Stream b(loop, logged);
  const auto act = [&] {
    for (auto n = rng.uniform_int(1, 3); n > 0; --n) {
      const util::Time t = loop.now() + rng.uniform_int(0, 6);
      const int tag = next_tag++;
      const auto which = rng.uniform_int(0, 2);
      if (which == 2) {
        loop.schedule_at(t, [&logged, tag] { logged(tag); });
        continue;
      }
      const auto i = static_cast<std::size_t>(which);
      out.before_tail += t < tail[i];
      tail[i] = std::max(tail[i], t);
      (i == 0 ? a : b).send(t, tag);
    }
  };
  std::function<void()> drive = [&] {
    act();
    if (loop.now() < 500) loop.schedule_in(rng.uniform_int(0, 4), drive);
  };
  loop.schedule_at(0, drive);
  while (end < 600) {
    end += rng.uniform_int(0, 8);
    loop.run_until(end);
    if (rng.bernoulli(0.5)) act();
  }
  end += 50;  // A's sink stops sending by itself with probability one
  loop.run_until(end);
  EXPECT_EQ(loop.pending(), 0u);
  return out;
}

TEST(InOrderStream, MatchesOneEventPerItem) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Script got = run_script<InOrderStream<int>>(seed);
    const Script want = run_script<OneEventPerItem>(seed);
    ASSERT_EQ(got.log, want.log) << "seed " << seed;
    EXPECT_GT(got.log.size(), 300u) << "seed " << seed;
    EXPECT_GT(got.before_tail, 0) << "seed " << seed;
    EXPECT_GT(got.self_sends, 0) << "seed " << seed;
    EXPECT_GT(got.at_barrier, 0) << "seed " << seed;
  }
}

// A sink that sends on its own stream, due at once: the stream is empty
// after its head fired, so the new item goes on the heap under its own
// key and runs in this drain, after an event scheduled before it.
TEST(InOrderStream, SinkSendsOnItsOwnStream) {
  EventLoop loop;
  std::vector<int> order;
  int resends = 2;
  InOrderStream<int> s(loop, [&](int v) {
    order.push_back(v);
    if (resends-- > 0) s.send(loop.now(), v + 10);
  });
  s.send(5, 1);
  loop.schedule_at(5, [&] { order.push_back(0); });
  s.send(7, 2);  // queued: the resends at 5 come before it
  loop.run_until(5);
  EXPECT_EQ(order, (std::vector<int>{1, 0, 11, 21}));
  loop.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{1, 0, 11, 21, 2}));
}

// An item due before the stream's tail — the ACK a feedback-delay spike
// overtakes — takes a heap entry of its own and still runs in its place.
TEST(InOrderStream, ItemDueBeforeTailRunsInItsPlace) {
  EventLoop loop;
  Dispatches got;
  InOrderStream<int> s(loop, [&](int v) { got.emplace_back(loop.now(), v); });
  s.send(50, 1);  // the delayed one
  s.send(20, 2);  // due before it
  s.send(50, 3);  // ties with the tail: queues behind it
  s.send(60, 4);
  EXPECT_EQ(loop.pending(), 2u);  // 1 as the head of 1, 3, 4; 2 on its own
  loop.run_until(100);
  EXPECT_EQ(got, (Dispatches{{20, 2}, {50, 1}, {50, 3}, {60, 4}}));
}

// Heads due exactly at a run_until end run in that call, the second armed
// by the first's dispatch; an item sent at the barrier time after it
// returned runs on the next call, before the later head.
TEST(InOrderStream, HeadDueAtRunUntilEndRuns) {
  EventLoop loop;
  std::vector<int> got;
  InOrderStream<int> s(loop, [&](int v) { got.push_back(v); });
  s.send(100, 1);
  s.send(100, 2);
  s.send(101, 3);
  loop.run_until(100);
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now(), 100);
  s.send(100, 4);
  loop.run_until(100);
  EXPECT_EQ(got, (std::vector<int>{1, 2, 4}));
  loop.run_until(200);
  EXPECT_EQ(got, (std::vector<int>{1, 2, 4, 3}));
}

// pending() counts heap entries: a stream is one however many items it
// holds, and a DelayLink full of packets is one too.
TEST(InOrderStream, PendingCountsHeapEntries) {
  EventLoop loop;
  int delivered = 0;
  InOrderStream<int> s(loop, [&](int) { ++delivered; });
  for (int i = 0; i < 10; ++i) s.send(10 + i, i);
  loop.schedule_at(15, [] {});
  EXPECT_EQ(loop.pending(), 2u);  // the stream's head and the plain event
  loop.run_until(14);
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(loop.pending(), 2u);
  loop.run_until(100);
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(loop.pending(), 0u);

  DelayLink link(loop, 10 * util::kMillisecond, [](Packet) {}, 5, 3);
  for (int i = 0; i < 100; ++i) link.send(Packet{});
  EXPECT_EQ(loop.pending(), 1u);
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
