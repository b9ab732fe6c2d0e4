// Deterministic random number generation for reproducible simulations.
//
// xoshiro256** — fast, high-quality, and stable across platforms (unlike
// std::normal_distribution etc., whose output is implementation-defined).
// Every stochastic component takes an explicit Rng (or a seed) so that a
// whole experiment is a pure function of its configuration.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace pbecc::util {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  // Also drops any draws that discard() still owes.
  void reseed(std::uint64_t seed);

  // Uniform on the full 64-bit range. Inline: the PDCCH noise model draws
  // once per control-region bit.
  std::uint64_t next_u64() {
    pay_debt();
    return draw();
  }

  // Skip `n` draws: afterwards every output (next_u64, normal, fork, ...)
  // is the one it would be after n next_u64() calls. The skip is owed, not
  // made: discards add up, and the next output pays the whole debt at
  // once, so the silent words, slots and cells the PDCCH noise model
  // passes over in a row share one skip. A short debt steps the state
  // without computing outputs; from kJumpBreakEven draws on, the state
  // jumps (rng.cpp), at a cost that no longer grows with the debt until it
  // passes kJumpSpan.
  void discard(std::uint64_t n) {
    if (n > ~owed_) pay_debt();  // the sum would wrap
    owed_ += n;
  }
  // Where a jump starts to beat stepping, measured on a 4-vCPU x86-64
  // host (DESIGN.md §14, "Noise contract").
  static constexpr std::uint64_t kJumpBreakEven = 512;
  // Draws one tabled jump covers; a longer debt makes several.
  static constexpr std::uint64_t kJumpSpan = 64 * 256;

  // Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  bool bernoulli(double p) { return uniform() < p; }

  // bernoulli(p) as an integer test for hot loops that hoist it: for the
  // same draw, (next_u64() >> 11) < bernoulli_cutoff(p) holds exactly when
  // uniform() < p does.
  static std::uint64_t bernoulli_cutoff(double p);

  // `len` (0..64) draws, each tested as (next_u64() >> 11) < cutoff with
  // cutoff = bernoulli_cutoff(p), packed into the low `len` bits of the
  // result, first draw most significant. The same stream as `len`
  // next_u64() calls, but the debt is paid once, outside the per-draw loop.
  std::uint64_t bernoulli_bits(std::size_t len, std::uint64_t cutoff) {
    pay_debt();
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < len; ++j) {
      // (draw() >> 11) < cutoff, read off the sign of their difference:
      // both lie in [0, 2^53].
      bits = (bits << 1) | (((draw() >> 11) - cutoff) >> 63);
    }
    return bits;
  }

  // Exponential with given mean (mean > 0).
  double exponential(double mean) {
    double u = uniform();
    // Guard against log(0).
    if (u <= 0.0) u = 1e-18;
    return -mean * std::log(u);
  }

  // Standard normal via Box–Muller (deterministic, platform-stable).
  double normal();
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  // Poisson-distributed count with given mean (Knuth for small means,
  // normal approximation above 64 to stay O(1)).
  std::int64_t poisson(double mean);

  // Derive an independent stream (e.g. per-cell, per-user sub-RNGs).
  Rng fork();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  // One xoshiro256** output; the caller has paid the debt.
  std::uint64_t draw() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    step();
    return result;
  }

  // The xoshiro256 state transition: linear over GF(2), output-free.
  void step() {
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
  }

  // Make the draws discard() owes; settle() steps or jumps over them.
  void pay_debt() {
    if (owed_ != 0) [[unlikely]] settle();
  }
  void settle();
  void jump_ahead(std::uint64_t n);

  std::uint64_t s_[4];
  std::uint64_t owed_ = 0;  // draws skipped by discard() but not yet made
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace pbecc::util
