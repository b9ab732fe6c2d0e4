// Shared helpers for the reproduction benches: their common options and
// table/CDF printing in the shape the paper reports.
#pragma once

#include <chrono>
#include <cstdio>

#include "par/thread_pool.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/time.h"

namespace pbecc::bench {

// The two options benches share, for their util::parse tables: --threads
// on a bench that fans a grid of independent runs out on a
// par::ThreadPool (a single run stays on one thread), --seconds on one
// whose flows have a length (the paper uses 20 s flows; shorter defaults
// keep the suite quick).
inline util::Arg threads(int& threads) {
  return util::whole("--threads N", threads, 0, 256,
                     "pool size for the grid of runs, 0 = every core");
}

inline util::Arg seconds(int& seconds) {
  return util::whole("--seconds N", seconds, 1, 86400, "flow length");
}

inline void header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

// Order statistics row in the paper's Fig 13/14 style.
inline void print_order_stats(const char* label, const util::SampleSet& s) {
  std::printf("%-8s p10=%8.1f p25=%8.1f p50=%8.1f p75=%8.1f p90=%8.1f\n",
              label, s.percentile(10), s.percentile(25), s.percentile(50),
              s.percentile(75), s.percentile(90));
}

// Compact CDF: value at each decile.
inline void print_cdf(const char* label, const util::SampleSet& s) {
  std::printf("%-22s:", label);
  for (int p = 10; p <= 100; p += 10) {
    std::printf(" %7.1f", s.percentile(p));
  }
  std::printf("  (deciles 10..100)\n");
}

// Wall-clock stopwatch for the benches that print a rate.
class WallTimer {
 public:
  WallTimer() : t0_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace pbecc::bench
