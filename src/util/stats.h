// Statistics helpers used across the evaluation harness:
//  - OnlineStats: streaming mean / min / max.
//  - SampleSet:   exact order statistics (percentiles) over stored samples.
//  - jain_index:  Jain's fairness index (paper §6.4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pbecc::util {

class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Stores samples and answers exact percentile queries.
class SampleSet {
 public:
  void add(double x) { samples_.push_back(x); sorted_ = false; }
  void reserve(std::size_t n) { samples_.reserve(n); }
  void clear() { samples_.clear(); sorted_ = false; }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double min() const;
  double max() const;

  // p in [0, 100]. Linear interpolation between closest ranks.
  // Returns 0 for an empty set.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  // NOTE: percentile()/min()/max() lazily sort in place, so the order of
  // samples() is insertion order only until the first such query. Callers
  // that need arrival order (e.g. time-series analysis) must copy first.
  std::span<const double> samples() const { return samples_; }

 private:
  void sort_if_needed() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// Jain's fairness index: (sum x)^2 / (n * sum x^2). 1.0 is perfectly fair.
// Returns 1.0 for empty or all-zero input (nothing to be unfair about).
double jain_index(std::span<const double> allocations);

}  // namespace pbecc::util
