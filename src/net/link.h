// Wired network path elements: a droptail bottleneck queue + serialization
// stage, and a pure propagation-delay stage with optional jitter. Composed
// by sim::Scenario into "server -> Internet -> base station" paths.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "net/event_loop.h"
#include "net/packet.h"
#include "util/rate.h"
#include "util/rng.h"

namespace pbecc::net {

// Receives packets at the far end of a link stage.
using PacketHandler = std::function<void(Packet)>;

// Fixed propagation delay with optional uniform jitter in [0, max_jitter)
// µs (a uniform draw scaled by max_jitter, truncated to whole µs). Jitter
// never reorders packets (delivery time is clamped to be monotonic),
// matching FIFO queue behaviour.
class DelayLink {
 public:
  DelayLink(EventLoop& loop, util::Duration delay, PacketHandler sink,
            util::Duration max_jitter = 0, std::uint64_t seed = 1);
  // Pending delivery events hold `this`.
  DelayLink(const DelayLink&) = delete;
  DelayLink& operator=(const DelayLink&) = delete;

  void send(Packet pkt);

  util::Duration delay() const { return delay_; }

 private:
  void deliver_head();

  EventLoop& loop_;
  util::Duration delay_;
  util::Duration max_jitter_;
  PacketHandler sink_;
  util::Rng rng_;
  util::Time last_delivery_ = 0;
  // Packets in flight, in send order. Delivery times are monotonic and the
  // loop breaks time ties by scheduling order, so this link's delivery
  // events fire in send order too and each one delivers the head.
  std::deque<Packet> in_flight_;
};

// Rate-limited droptail queue: models the Internet bottleneck the paper's
// Internet-bottleneck state reacts to. Unlimited rate = pass-through.
class BottleneckLink {
 public:
  struct Config {
    util::RateBps rate = 0;               // 0 or negative = unlimited
    std::int64_t buffer_bytes = 256 * 1024;
    util::Duration propagation_delay = 0;
  };

  BottleneckLink(EventLoop& loop, Config cfg, PacketHandler sink);

  void send(Packet pkt);

  std::int64_t queued_bytes() const { return queued_bytes_; }
  std::uint64_t drops() const { return drops_; }
  void set_rate(util::RateBps rate) { cfg_.rate = rate; }
  util::RateBps rate() const { return cfg_.rate; }

 private:
  void transmit_head();

  EventLoop& loop_;
  Config cfg_;
  PacketHandler sink_;
  std::deque<Packet> queue_;
  std::int64_t queued_bytes_ = 0;
  bool transmitting_ = false;
  std::uint64_t drops_ = 0;
};

}  // namespace pbecc::net
