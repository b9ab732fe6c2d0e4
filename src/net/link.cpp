#include "net/link.h"

#include <algorithm>
#include <utility>

namespace pbecc::net {

DelayLink::DelayLink(EventLoop& loop, util::Duration delay, PacketHandler sink,
                     util::Duration max_jitter, std::uint64_t seed)
    : loop_(loop), delay_(delay), max_jitter_(max_jitter),
      sink_(std::move(sink)), rng_(seed) {}

void DelayLink::send(Packet pkt) {
  util::Duration jitter = 0;
  if (max_jitter_ > 0) {
    jitter = static_cast<util::Duration>(rng_.uniform() * static_cast<double>(max_jitter_));
  }
  util::Time deliver_at = loop_.now() + delay_ + jitter;
  // FIFO: never deliver before a previously sent packet.
  deliver_at = std::max(deliver_at, last_delivery_);
  last_delivery_ = deliver_at;
  loop_.schedule_at(deliver_at, [this] { deliver_head(); });
  in_flight_.push_back(std::move(pkt));
}

void DelayLink::deliver_head() {
  Packet pkt = std::move(in_flight_.front());
  in_flight_.pop_front();
  sink_(std::move(pkt));
}

BottleneckLink::BottleneckLink(EventLoop& loop, Config cfg, PacketHandler sink)
    : loop_(loop), cfg_(cfg), sink_(std::move(sink)) {}

void BottleneckLink::send(Packet pkt) {
  if (cfg_.rate <= 0) {
    // Unlimited link: pure propagation delay.
    loop_.schedule_in(cfg_.propagation_delay, [this, pkt = std::move(pkt)]() mutable {
      sink_(std::move(pkt));
    });
    return;
  }
  if (queued_bytes_ + pkt.bytes > cfg_.buffer_bytes) {
    ++drops_;  // droptail
    return;
  }
  queue_.push_back(std::move(pkt));
  queued_bytes_ += queue_.back().bytes;
  if (!transmitting_) transmit_head();
}

void BottleneckLink::transmit_head() {
  if (queue_.empty()) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  Packet pkt = std::move(queue_.front());
  queue_.pop_front();
  queued_bytes_ -= pkt.bytes;
  const util::Duration ser = util::transmission_delay(pkt.bytes, cfg_.rate);
  loop_.schedule_in(ser, [this, pkt = std::move(pkt)]() mutable {
    loop_.schedule_in(cfg_.propagation_delay, [this, pkt = std::move(pkt)]() mutable {
      sink_(std::move(pkt));
    });
    transmit_head();
  });
}

}  // namespace pbecc::net
