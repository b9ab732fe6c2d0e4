#include "util/rng.h"

namespace pbecc::util {

namespace {

// splitmix64: seeds the xoshiro state from a single 64-bit value.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  have_spare_normal_ = false;
}

std::uint64_t Rng::bernoulli_cutoff(double p) {
  // uniform() is exactly k * 2^-53 for the integer k = next_u64() >> 11,
  // so uniform() < p  <=>  k < p * 2^53  <=>  k < ceil(p * 2^53).
  const double t = p * 0x1.0p53;
  if (!(t > 0.0)) return 0;              // p <= 0 (or NaN): never
  if (t >= 0x1.0p53) return 1ULL << 53;  // p >= 1: always
  return static_cast<std::uint64_t>(std::ceil(t));
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

double Rng::normal() {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 1e-18;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_normal_ = r * std::sin(theta);
  have_spare_normal_ = true;
  return r * std::cos(theta);
}

std::int64_t Rng::poisson(double mean) {
  if (mean <= 0) return 0;
  if (mean > 64.0) {
    // Normal approximation keeps this O(1) for large means.
    const double v = normal(mean, std::sqrt(mean));
    return v < 0 ? 0 : static_cast<std::int64_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  double prod = uniform();
  std::int64_t n = 0;
  while (prod > limit) {
    prod *= uniform();
    ++n;
  }
  return n;
}

Rng Rng::fork() { return Rng{next_u64()}; }

}  // namespace pbecc::util
