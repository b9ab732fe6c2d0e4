// pbecc::par — a fork-join pool for independent runs.
//
// Blind decode runs on the thread that steps its cell; nothing in a single
// run uses a pool. Pools have owners instead (DESIGN.md §9):
//
//   * a bench that runs a grid builds one from its --threads flag
//     (bench/bench_common.h) and fans the grid's independent scenario runs
//     out on it;
//   * sim::Scenario builds one per multi-cluster scenario, sized by
//     ScenarioConfig::shards, to step its shard domains between barriers.
//
// parallel_for(n, fn) runs fn(0..n-1). The calling thread claims iterations
// too, so a 1-thread pool executes inline, in index order. The first
// exception (by lowest index) is rethrown after the loop completes. Nested
// parallel_for from inside an iteration is safe: the nested caller drains
// its own loop, so no thread ever blocks while work remains.
//
// Determinism contract: iterations are independent; callers collect
// per-iteration results by index and merge serially, so results are
// byte-identical for any thread count, including 1.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pbecc::par {

class ThreadPool {
 public:
  // `threads` = total parallelism including the calling thread, so the
  // pool spawns threads-1 workers. 0 = std::thread::hardware_concurrency.
  explicit ThreadPool(int threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  // Run fn(i) for every i in [0, n). Blocks until all iterations have
  // finished; rethrows the lowest-index exception if any iteration threw.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Map i -> fn(i) into a vector, merged by index (deterministic regardless
  // of execution order). Fn must be invocable with std::size_t.
  template <typename Fn>
  auto parallel_map(std::size_t n, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{0}))> {
    std::vector<decltype(fn(std::size_t{0}))> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  struct ForLoop {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};
    // Workers inside drain_loop; registered under the pool mutex, so once
    // the owner has delisted the loop the count only falls, and the owner
    // waits for 0 before the stack-allocated loop goes out of scope.
    std::atomic<int> helpers{0};
    std::mutex m;
    std::condition_variable done_cv;
    std::size_t first_error = SIZE_MAX;  // guarded by m
    std::exception_ptr error;            // guarded by m
  };

  void worker_main();
  static void drain_loop(ForLoop& loop);
  // Newest active loop with unclaimed iterations, or null. Needs m_.
  ForLoop* open_loop() const;

  int threads_ = 1;
  std::mutex m_;
  std::condition_variable wake_cv_;
  bool stop_ = false;                   // guarded by m_
  std::vector<ForLoop*> active_loops_;  // guarded by m_; newest last
  std::vector<std::thread> workers_;
};

}  // namespace pbecc::par
