// Shared helpers for the reproduction benches: argument handling,
// table/CDF printing in the shape the paper reports, and the
// machine-readable JSON reporter behind every bench's `--json <path>`
// (records consumed by bench/bench_gate.py and the CI bench-smoke job).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "par/thread_pool.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/time.h"

namespace pbecc::bench {

// Flow length for end-to-end benches: `--seconds N` (1..86400) overrides
// the default (the paper uses 20 s flows; shorter runs keep the full suite
// quick).
inline util::Duration flow_seconds(int argc, char** argv,
                                   int default_seconds) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--seconds") == 0) {
      return util::whole_number_arg("--seconds", argv[i + 1], 1, 86400) *
             util::kSecond;
    }
  }
  return default_seconds * util::kSecond;
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

// Wall-clock stopwatch for bench records.
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

// Machine-readable bench reporter. Every bench constructs one from argv:
//
//   --json <path>   write a JSON array of records on exit
//   --threads N     size the bench grid's pool (0..256, 0 = every core;
//                   default 1). Benches fan their independent scenario
//                   runs out on pool(); a single run stays on one thread.
//
// Each record is {"schema_version", "bench", "config", "wall_ms",
// "subframes_per_sec", "decode_attempts", "threads"}, keys always in that
// order — the schema bench/bench_gate.py and the CI bench-smoke job
// consume. Benches call add() once per measured configuration (pass 0 for
// fields that do not apply); the file is written by write() or the
// destructor, whichever comes first.
class Reporter {
 public:
  Reporter(std::string bench_name, int argc, char** argv)
      : bench_(std::move(bench_name)), pool_(threads_arg(argc, argv)) {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) json_path_ = argv[i + 1];
    }
  }
  ~Reporter() { write(); }
  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  bool json_enabled() const { return !json_path_.empty(); }

  // The bench grid's pool, sized by --threads.
  par::ThreadPool& pool() { return pool_; }

  void add(const std::string& config, double wall_ms,
           double subframes_per_sec, std::uint64_t decode_attempts) {
    Record r;
    r.config = config;
    r.wall_ms = wall_ms;
    r.subframes_per_sec = subframes_per_sec;
    r.decode_attempts = decode_attempts;
    records_.push_back(std::move(r));
  }

  bool write() {
    if (json_path_.empty() || written_) return true;
    written_ = true;
    FILE* f = std::fopen(json_path_.c_str(), "w");
    if (!f) {
      std::perror("bench --json open");
      return false;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "  {\"schema_version\": 1, \"bench\": \"%s\", "
                   "\"config\": \"%s\", "
                   "\"wall_ms\": %.3f, \"subframes_per_sec\": %.1f, "
                   "\"decode_attempts\": %llu, \"threads\": %d}%s\n",
                   bench_.c_str(), escape(r.config).c_str(), r.wall_ms,
                   r.subframes_per_sec,
                   static_cast<unsigned long long>(r.decode_attempts),
                   pool_.threads(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Record {
    std::string config;
    double wall_ms = 0;
    double subframes_per_sec = 0;
    std::uint64_t decode_attempts = 0;
  };

  static int threads_arg(int argc, char** argv) {
    int threads = 1;
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--threads") == 0) {
        threads = static_cast<int>(
            util::whole_number_arg("--threads", argv[i + 1], 0, 256));
      }
    }
    return threads;
  }

  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::string bench_;
  std::string json_path_;
  std::vector<Record> records_;
  bool written_ = false;
  par::ThreadPool pool_;
};

}  // namespace pbecc::bench
