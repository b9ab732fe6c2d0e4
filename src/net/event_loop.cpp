#include "net/event_loop.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"

namespace pbecc::net {

EventLoop::Key EventLoop::reserve(util::Time t) {
  if (t < now_) throw std::logic_error("scheduling event in the past");
  return Key{t, next_seq_++};
}

void EventLoop::schedule(Key key, Callback cb) {
  if (key.time < now_) throw std::logic_error("scheduling event in the past");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
  }
  heap_.push_back(Entry{key, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventLoop::run_one() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry ev = heap_.back();
  heap_.pop_back();
  now_ = ev.key.time;
  // Moved out before it runs: a callback that schedules may grow slots_.
  Callback cb = std::move(slots_[ev.slot]);
  free_slots_.push_back(ev.slot);
  static obs::Counter& dispatched = obs::counter("net.events_dispatched");
  dispatched.inc();
  {
    PBECC_PROF_SCOPE("event_dispatch");
    cb();
  }
  return true;
}

void EventLoop::run_until(util::Time end) {
  // The loop condition re-examines the heap top after every dispatch, so an
  // event scheduled exactly at `end` by a callback running at `end` is
  // picked up in this same drain (barrier contract point 1). Pending events
  // always satisfy time >= now(), so when end < now() the body never runs
  // and the clock is left untouched (point 4).
  while (!heap_.empty() && heap_.front().key.time <= end) {
    run_one();
  }
  if (now_ < end) now_ = end;
}

}  // namespace pbecc::net
