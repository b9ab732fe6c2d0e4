#include "util/rng.h"

#include <algorithm>
#include <array>

namespace pbecc::util {

namespace {

// A polynomial over GF(2) of degree below 256: the coefficient of x^i is
// bit i % 64 of word i / 64.
using Poly = std::array<std::uint64_t, 4>;

// The characteristic polynomial P(x) of the xoshiro256 state transition T,
// without its x^256 term. Berlekamp–Massey over 512 outputs of one state
// bit finds it at degree 256. Since P(T) = 0, n steps of T equal the
// polynomial x^n mod P evaluated at T (Haramoto et al., "Efficient jump
// ahead for F2-linear random number generators", 2008). A wrong
// coefficient fails Rng.DiscardMatchesStepping.
constexpr Poly kCharPoly = {0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
                            0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

// a * x mod P.
Poly times_x(Poly a) {
  const std::uint64_t carry = 0 - (a[3] >> 63);
  for (int i = 3; i > 0; --i) a[i] = (a[i] << 1) | (a[i - 1] >> 63);
  a[0] <<= 1;
  for (int i = 0; i < 4; ++i) a[i] ^= kCharPoly[i] & carry;
  return a;
}

// Entry k is x^(64 k) mod P: the jump over 64 k draws.
struct JumpTable {
  std::array<Poly, Rng::kJumpSpan / 64 + 1> pow{};
  JumpTable() {
    Poly a = {1, 0, 0, 0};
    for (Poly& e : pow) {
      e = a;
      for (int i = 0; i < 64; ++i) a = times_x(a);
    }
  }
};

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

void Rng::jump_ahead(std::uint64_t n) {
  // Built on first use; shard workers share it read-only.
  static const JumpTable table;
  for (std::uint64_t r = n % 64; r > 0; --r) step();
  for (std::uint64_t words = n / 64; words > 0;) {
    const std::uint64_t k = std::min<std::uint64_t>(words, kJumpSpan / 64);
    words -= k;
    // s <- q(T) s for q = x^(64 k) mod P, one pass over q's coefficients
    // as in xoshiro's own jump(). Four named accumulators: with an array
    // gcc -O2 left them in memory and the pass ran four times slower.
    std::uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    for (const std::uint64_t word : table.pow[k]) {
      for (int b = 0; b < 64; ++b) {
        const std::uint64_t take = 0 - ((word >> b) & 1);
        a0 ^= s_[0] & take;
        a1 ^= s_[1] & take;
        a2 ^= s_[2] & take;
        a3 ^= s_[3] & take;
        step();
      }
    }
    s_[0] = a0;
    s_[1] = a1;
    s_[2] = a2;
    s_[3] = a3;
  }
}

}  // namespace pbecc::util
