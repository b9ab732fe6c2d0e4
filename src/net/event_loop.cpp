#include "net/event_loop.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"

namespace pbecc::net {

void EventLoop::schedule_at(util::Time t, Callback cb) {
  if (t < now_) throw std::logic_error("scheduling event in the past");
  heap_.push_back(Event{t, next_seq_++, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventLoop::run_one() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  now_ = ev.time;
  static obs::Counter& dispatched = obs::counter("net.events_dispatched");
  dispatched.inc();
  {
    PBECC_PROF_SCOPE("event_dispatch");
    ev.cb();
  }
  return true;
}

void EventLoop::run_until(util::Time end) {
  // The loop condition re-examines the heap top after every dispatch, so an
  // event scheduled exactly at `end` by a callback running at `end` is
  // picked up in this same drain (barrier contract point 1). Pending events
  // always satisfy time >= now(), so when end < now() the body never runs
  // and the clock is left untouched (point 4).
  while (!heap_.empty() && heap_.front().time <= end) {
    run_one();
  }
  if (now_ < end) now_ = end;
}

}  // namespace pbecc::net
