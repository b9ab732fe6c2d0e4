// Items in flight to one sink, behind one event-loop heap entry.
//
// send(t, item) delivers `item` to the sink at time `t`, in exactly the
// place a schedule_at(t, ...) made at the moment of the send would run:
// the item takes its (t, seq) key from EventLoop::reserve at once and
// waits in a FIFO. Keys of queued items increase from head to tail, so
// only the head needs a heap entry; when it fires, the next item goes on
// the heap under the key it reserved. An item due before the tail cannot
// queue behind it and takes a heap entry of its own instead.
//
// DelayLink's packets and a flow's ACK uplink are streams: hundreds of
// items can be in flight per link, and the heap holds one small `[this]`
// event per stream instead of a closure per item (an ACK's capture is too
// big for std::function's inline buffer).
#pragma once

#include <deque>
#include <functional>
#include <utility>

#include "net/event_loop.h"

namespace pbecc::net {

template <class T>
class InOrderStream {
 public:
  using Sink = std::function<void(T)>;

  InOrderStream(EventLoop& loop, Sink sink)
      : loop_(loop), sink_(std::move(sink)) {}
  // The head's heap entry holds `this`.
  InOrderStream(const InOrderStream&) = delete;
  InOrderStream& operator=(const InOrderStream&) = delete;

  // Deliver `item` at time `t` (>= now).
  void send(util::Time t, T item) {
    if (!queue_.empty() && t < queue_.back().key.time) {
      loop_.schedule_at(t, [this, item = std::move(item)]() mutable {
        sink_(std::move(item));
      });
      return;
    }
    queue_.push_back(Queued{loop_.reserve(t), std::move(item)});
    if (queue_.size() == 1) arm();
  }

 private:
  struct Queued {
    EventLoop::Key key;
    T item;
  };

  void arm() {
    loop_.schedule(queue_.front().key, [this] { fire(); });
  }

  // The next head goes on the heap before the sink runs, so the stream is
  // armed whenever it is non-empty, while the sink runs too.
  void fire() {
    T item = std::move(queue_.front().item);
    queue_.pop_front();
    if (!queue_.empty()) arm();
    sink_(std::move(item));
  }

  EventLoop& loop_;
  Sink sink_;
  std::deque<Queued> queue_;
};

}  // namespace pbecc::net
