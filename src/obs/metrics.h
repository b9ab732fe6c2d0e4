// Process-wide metrics registry: named counters, gauges and exponential-
// bucket histograms that any module can register into.
//
// Naming convention: `module.metric[.detail]`, e.g.
//   decoder.messages_decoded     counter, monotonically increasing
//   pbe.sender.pacing_bps        gauge, last written value wins
//   prof.blind_decode            histogram of wall-clock ns per call
//
// The registry is process-global and thread-safe: shard workers step their
// domains on pool threads and bench grids run whole scenarios side by side,
// all counting into it, so counters/gauges use relaxed atomics, histograms
// atomic buckets, and find-or-create takes a registry mutex. Metric objects
// returned by the registry are never deallocated, so call sites may cache
// the reference once and update it on the hot path; reset() zeroes values
// but keeps the registrations (and cached references) valid. Counter totals
// stay deterministic under concurrency (increments commute); only histogram
// min/max interleavings across *concurrent scenarios* are timing-dependent.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pbecc::obs {

class Counter {
 public:
  // Adding 0 takes no atomic read-modify-write: per-tick deltas (the
  // blind decoder folds 16 per cell-tick) are mostly 0.
  void inc(std::uint64_t n = 1) {
    if (n != 0) value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

// Exponential-bucket histogram for latency-style samples: bucket i counts
// values in [2^i, 2^{i+1}); value 0 lands in bucket 0. 48 buckets cover
// 1 ns .. ~3 days when samples are nanoseconds. Exact count/sum/min/max,
// percentiles approximated at the geometric midpoint of the bucket.
class ExpHistogram {
 public:
  static constexpr int kBuckets = 48;

  void record(std::uint64_t v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const {
    return count() ? min_.load(std::memory_order_relaxed) : 0;
  }
  std::uint64_t max() const {
    return count() ? max_.load(std::memory_order_relaxed) : 0;
  }
  double mean() const {
    const auto n = count();
    return n ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
  }
  // p in [0, 100]; 0 for an empty histogram.
  double percentile(double p) const;
  // Snapshot copy (buckets are atomics internally).
  std::array<std::uint64_t, kBuckets> buckets() const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

class Registry {
 public:
  static Registry& instance();

  // Find-or-create by name. References stay valid for the process lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  ExpHistogram& histogram(const std::string& name);

  // Zero every value; registrations (and cached references) survive.
  void reset();

  // Sorted-by-name snapshots (tests, report generation).
  std::vector<std::pair<std::string, std::uint64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<std::pair<std::string, const ExpHistogram*>> histograms() const;

  // One JSON document with all counters, gauges and histograms (the
  // per-scenario metrics report; schema documented in DESIGN.md).
  std::string to_json() const;
  bool write_json(const std::string& path) const;

 private:
  Registry() = default;
  // Guards the maps (find-or-create and snapshots); the metric objects
  // themselves are lock-free.
  mutable std::mutex m_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<ExpHistogram>> histograms_;
};

// Shorthands for call-site registration.
inline Counter& counter(const std::string& name) {
  return Registry::instance().counter(name);
}
inline Gauge& gauge(const std::string& name) {
  return Registry::instance().gauge(name);
}
inline ExpHistogram& histogram(const std::string& name) {
  return Registry::instance().histogram(name);
}

}  // namespace pbecc::obs
