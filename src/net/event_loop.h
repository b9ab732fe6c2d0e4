// Discrete-event simulation core.
//
// A binary heap of (time, sequence) keys, each naming the slot its
// callback waits in. Everything in a simulation domain — subframe ticks,
// packet arrivals, pacing timers — runs off one clock, so cellular and
// transport events interleave correctly at microsecond granularity. Ties
// break by insertion order (FIFO by `seq`), which keeps runs
// deterministic.
//
// Reserved keys. reserve(t) hands out the (t, seq) key a schedule_at(t)
// made at that moment would get, and schedule(key, cb) puts a callback on
// the heap under it later. An in-order stream (net/in_order_stream.h)
// uses this to keep a whole FIFO of packets or ACKs behind one heap
// entry: each item keeps the seq it took when it was sent, only the
// stream's head is on the heap, and when the head fires the next item
// goes on under its own reserved key. A stream's keys never decrease, so
// the heap's minimum is always the minimum over every pending item and
// dispatch order is exactly what one schedule_at per item would give.
// pending() counts heap entries: a stream counts once, however many
// items it holds.
//
// Sharded scenarios run one EventLoop per cell-cluster domain and step
// them in lockstep between subframe-aligned barriers (DESIGN.md §15), so
// `run_until` has an explicit barrier contract:
//
//  1. run_until(end) executes every pending event with time <= end —
//     including events scheduled exactly at `end` by a callback that
//     itself runs at `end` during this call. None are skipped across the
//     barrier.
//  2. On return, now() == end and no pending event has time <= end.
//  3. `seq` is monotonic over the loop's lifetime and is never reset by
//     run_until. Events scheduled at time `end` *after* run_until(end)
//     returns (e.g. by a shard barrier applying cross-shard messages) run
//     on the next run_until(end2 >= end), at time `end`, in FIFO order
//     relative to each other and before any strictly later event.
//  4. run_until(end) with end < now() is a no-op: the clock never moves
//     backward, and no pending event can have time < now().
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.h"

namespace pbecc::net {

class EventLoop {
 public:
  using Callback = std::function<void()>;

  // An event's place in dispatch order: earlier time first, then lower seq.
  struct Key {
    util::Time time;
    std::uint64_t seq;
  };

  util::Time now() const { return now_; }

  // Run `cb` at absolute time `t` (>= now).
  void schedule_at(util::Time t, Callback cb) { schedule(reserve(t), std::move(cb)); }
  // Run `cb` after `d` microseconds.
  void schedule_in(util::Duration d, Callback cb) { schedule_at(now_ + d, std::move(cb)); }

  // The key schedule_at(t, ...) would use now (t >= now), without putting
  // anything on the heap; every call takes the next seq.
  Key reserve(util::Time t);
  // Put `cb` on the heap under a key reserve() returned (time >= now).
  void schedule(Key key, Callback cb);

  // Execute the earliest pending event. Returns false if none remain.
  bool run_one();

  // Drain events through `end` per the barrier contract documented above;
  // leaves now() == end (so periodic processes can resume cleanly).
  void run_until(util::Time end);

  // Heap entries: a stream's queued items are one entry, its head.
  std::size_t pending() const { return heap_.size(); }

 private:
  // A heap entry is a key and the slot that holds its callback: 24 bytes
  // of plain data for the heap to sift, while each callback moves once
  // into its slot and once out of it, at dispatch.
  struct Entry {
    Key key;
    std::uint32_t slot;
  };
  // Max-heap comparator inverted so the *earliest* (time, seq) surfaces.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.key.time != b.key.time) return a.key.time > b.key.time;
      return a.key.seq > b.key.seq;
    }
  };

  util::Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;  // std::push_heap/pop_heap order
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace pbecc::net
