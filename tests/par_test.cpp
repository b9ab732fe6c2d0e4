// Tests for pbecc::par — the fork-join pool behind the bench grids and the
// shard stepping loop. The determinism contract (DESIGN.md §9) rests on
// parallel_for/parallel_map merging results by index, the serial path
// being literally inline execution, and errors propagating by lowest
// index.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "par/thread_pool.h"

namespace pbecc::par {
namespace {

TEST(ThreadPool, SingleThreadRunsInlineInOrder) {
  ThreadPool pool{1};
  std::vector<std::size_t> order;
  pool.parallel_for(16, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool{8};
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ThreadPool, ResultsMergeByIndexDeterministically) {
  ThreadPool serial{1};
  ThreadPool wide{8};
  for (ThreadPool* pool : {&serial, &wide}) {
    std::vector<std::uint64_t> out(5000);
    pool->parallel_for(out.size(), [&](std::size_t i) {
      out[i] = i * 2654435761ull;  // any pure function of the index
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], i * 2654435761ull);
    }
    const auto mapped = pool->parallel_map(
        64, [](std::size_t i) { return static_cast<int>(i) * 3; });
    ASSERT_EQ(mapped.size(), 64u);
    for (std::size_t i = 0; i < mapped.size(); ++i) {
      ASSERT_EQ(mapped[i], static_cast<int>(i) * 3);
    }
  }
}

TEST(ThreadPool, ZeroAndOneIterationEdgeCases) {
  ThreadPool pool{4};
  int ran = 0;
  pool.parallel_for(0, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, LowestIndexExceptionWins) {
  ThreadPool pool{8};
  // Iterations 3, 700 and 4900 throw; the loop must finish every other
  // iteration and rethrow the *lowest*-index error regardless of which
  // worker hit its exception first.
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(5000, [&](std::size_t i) {
      if (i == 3 || i == 700 || i == 4900) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    FAIL() << "expected parallel_for to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
  EXPECT_EQ(ran.load(), 4997);
}

TEST(ThreadPool, ExceptionOnSingleThreadPool) {
  ThreadPool pool{1};
  EXPECT_THROW(pool.parallel_for(
                   10, [&](std::size_t i) {
                     if (i == 7) throw std::logic_error("seven");
                   }),
               std::logic_error);
  // The pool stays usable afterwards.
  int ran = 0;
  pool.parallel_for(4, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 4);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool pool{4};
  std::vector<std::vector<std::uint32_t>> out(8);
  pool.parallel_for(out.size(), [&](std::size_t i) {
    out[i].resize(64);
    pool.parallel_for(out[i].size(), [&, i](std::size_t j) {
      out[i][j] = static_cast<std::uint32_t>(i * 1000 + j);
    });
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t j = 0; j < out[i].size(); ++j) {
      ASSERT_EQ(out[i][j], i * 1000 + j);
    }
  }
}

TEST(ThreadPool, ManyMoreIterationsThanThreads) {
  ThreadPool pool{2};
  std::atomic<std::uint64_t> sum{0};
  constexpr std::size_t kN = 100000;
  pool.parallel_for(kN, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(kN) * (kN - 1) / 2);
}

}  // namespace
}  // namespace pbecc::par
