#include "util/stats.h"

#include <algorithm>

namespace pbecc::util {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

void SampleSet::sort_if_needed() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  sort_if_needed();
  return samples_.empty() ? 0.0 : samples_.front();
}

double SampleSet::max() const {
  sort_if_needed();
  return samples_.empty() ? 0.0 : samples_.back();
}

double SampleSet::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  sort_if_needed();
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double jain_index(std::span<const double> allocations) {
  if (allocations.empty()) return 1.0;
  double sum = 0.0, sumsq = 0.0;
  for (double x : allocations) {
    sum += x;
    sumsq += x * x;
  }
  if (sumsq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(allocations.size()) * sumsq);
}

}  // namespace pbecc::util
