// Shared helpers for the reproduction benches: a strict command line and
// table/CDF printing in the shape the paper reports.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "par/thread_pool.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/time.h"

namespace pbecc::bench {

// A bench's command line: `--option value` pairs, each option one of those
// the bench names. An unknown option exits 2 with "unknown option X", an
// option without its value exits 2 with "missing value for X", and a
// number out of its range exits 2 with util::whole_number_arg's message.
// The two options benches share:
//
//   --seconds N   flow length, 1..86400, on benches whose flows have one
//                 (the paper uses 20 s flows; shorter defaults keep the
//                 suite quick)
//   --threads N   size of the par::ThreadPool a bench fans its grid of
//                 independent runs out on, 0..256 (0 = every core;
//                 default 1); a single run stays on one thread
class Args {
 public:
  Args(int argc, char** argv, std::initializer_list<std::string_view> options) {
    for (int i = 1; i < argc; ++i) {
      const char* option = argv[i];
      if (std::find(options.begin(), options.end(), option) == options.end()) {
        std::fprintf(stderr, "unknown option %s\n", option);
        std::exit(2);
      }
      values_[option] = util::option_value(argc, argv, i);
    }
  }

  // The value given for `option`, or "" when it was not given.
  std::string text(const std::string& option) const {
    const char* v = find(option);
    return v ? v : "";
  }

  util::Duration seconds(int default_seconds) const {
    const char* v = find("--seconds");
    return (v ? util::whole_number_arg("--seconds", v, 1, 86400)
              : default_seconds) *
           util::kSecond;
  }

  int threads() const {
    const char* v = find("--threads");
    return v ? static_cast<int>(util::whole_number_arg("--threads", v, 0, 256))
             : 1;
  }

 private:
  const char* find(const std::string& option) const {
    const auto it = values_.find(option);
    return it == values_.end() ? nullptr : it->second;
  }

  std::map<std::string, const char*> values_;
};

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
