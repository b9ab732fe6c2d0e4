#include "par/thread_pool.h"

#include <algorithm>

namespace pbecc::par {

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : static_cast<int>(hw);
  }
  threads_ = threads;
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool::ForLoop* ThreadPool::open_loop() const {
  // Help the newest loop first so nested loops finish before their
  // parents starve.
  for (auto it = active_loops_.rbegin(); it != active_loops_.rend(); ++it) {
    if ((*it)->next.load() < (*it)->n) return *it;
  }
  return nullptr;
}

void ThreadPool::drain_loop(ForLoop& loop) {
  std::size_t i;
  while ((i = loop.next.fetch_add(1)) < loop.n) {
    try {
      (*loop.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(loop.m);
      if (i < loop.first_error) {
        loop.first_error = i;
        loop.error = std::current_exception();
      }
    }
  }
}

void ThreadPool::worker_main() {
  std::unique_lock<std::mutex> lk(m_);
  while (true) {
    // Pick the loop inside the predicate: `next` advances without m_, so
    // a second open_loop() call could already find the loop drained. That
    // is also the only change the predicate sees outside m_, and it can
    // only turn the predicate false, so no wake-up is ever lost.
    ForLoop* loop = nullptr;
    wake_cv_.wait(lk, [&] {
      return stop_ || (loop = open_loop()) != nullptr;
    });
    if (stop_) return;
    loop->helpers.fetch_add(1);
    lk.unlock();
    drain_loop(*loop);
    {
      // Notify under the loop's mutex: once it is released the owner may
      // return and destroy the loop.
      std::lock_guard<std::mutex> g(loop->m);
      loop->helpers.fetch_sub(1);
      loop->done_cv.notify_all();
    }
    lk.lock();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Serial path: strict index order on the calling thread.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  ForLoop loop;
  loop.n = n;
  loop.fn = &fn;
  {
    std::lock_guard<std::mutex> lk(m_);
    active_loops_.push_back(&loop);
  }
  wake_cv_.notify_all();

  // The caller claims iterations too, so progress never depends on a
  // worker being free (and a busy pool degrades to inline execution).
  // When drain_loop returns every iteration is claimed; the ones still
  // running belong to registered helpers.
  drain_loop(loop);
  {
    std::lock_guard<std::mutex> lk(m_);
    active_loops_.erase(
        std::find(active_loops_.begin(), active_loops_.end(), &loop));
  }
  {
    std::unique_lock<std::mutex> lk(loop.m);
    loop.done_cv.wait(lk, [&] { return loop.helpers.load() == 0; });
  }
  if (loop.error) std::rethrow_exception(loop.error);
}

}  // namespace pbecc::par
