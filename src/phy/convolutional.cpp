#include "phy/convolutional.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "obs/profile.h"

namespace pbecc::phy {

namespace {

// 3GPP 36.212 generators, octal 133 / 171 / 165, MSB = current input bit.
constexpr std::array<std::uint32_t, 3> kGenerators = {0b1011011, 0b1111001,
                                                      0b1110101};
constexpr int kNumStates = 1 << (kConvConstraint - 1);  // 64

bool parity(std::uint32_t v) { return __builtin_popcount(v) & 1; }

// Register layout: bit6 = current input, bits5..0 = previous six inputs
// (newest at bit5). The successor state is reg >> 1.
std::uint32_t make_reg(int input_bit, std::uint32_t state) {
  return (static_cast<std::uint32_t>(input_bit) << 6) | state;
}

// kBranchOut[reg] packs the three coded output bits for register value
// reg: bit k = parity(reg & kGenerators[k]). One table lookup replaces
// three popcount-parities per trellis branch.
constexpr std::array<std::uint8_t, 2 * kNumStates> make_branch_out() {
  std::array<std::uint8_t, 2 * kNumStates> t{};
  for (std::uint32_t reg = 0; reg < 2 * kNumStates; ++reg) {
    std::uint8_t out = 0;
    for (int k = 0; k < kConvRateInv; ++k) {
      std::uint32_t v = reg & kGenerators[static_cast<std::size_t>(k)];
      std::uint32_t p = 0;
      while (v != 0) {
        p ^= v & 1u;
        v >>= 1;
      }
      out |= static_cast<std::uint8_t>(p << k);
    }
    t[reg] = out;
  }
  return t;
}
constexpr auto kBranchOut = make_branch_out();

// All three generators have their first and last taps set (bit 6, the
// input, and bit 0, the oldest state bit), so flipping either flips all
// three coded bits: predecessor 2i+1 gains the negative of what 2i gains,
// and the input-1 branch out of a state gains the negative of its input-0
// branch. One gain per butterfly therefore serves all four of its
// branches.
constexpr bool taps_complement() {
  for (std::uint32_t reg = 0; reg < 2 * kNumStates; ++reg) {
    const auto flipped = static_cast<std::uint8_t>(kBranchOut[reg] ^ 7u);
    if (kBranchOut[reg ^ 1u] != flipped || kBranchOut[reg ^ 64u] != flipped) {
      return false;
    }
  }
  return true;
}
static_assert(taps_complement());

constexpr int kButterflies = kNumStates / 2;  // 32
constexpr std::size_t kMaxSteps = kConvMaxPayloadBits + kConvTailBits;

// kGainSign[k][i]: +1 when coded bit k of butterfly i's reference branch
// (predecessor 2i, input 0) is set, -1 when it is clear.
constexpr auto kGainSign = [] {
  std::array<std::array<std::int16_t, kButterflies>, kConvRateInv> t{};
  for (int k = 0; k < kConvRateInv; ++k) {
    for (int i = 0; i < kButterflies; ++i) {
      t[static_cast<std::size_t>(k)][static_cast<std::size_t>(i)] =
          ((kBranchOut[static_cast<std::size_t>(2 * i)] >> k) & 1) != 0 ? 1
                                                                         : -1;
    }
  }
  return t;
}();

// Path metric of an unreachable state. A reachable metric lies in [-T, T]
// for a T-bit block, and an unreachable one is this sentinel plus a sum of
// branch gains, which stays within [kUnreachable - T, kUnreachable + T]:
// below every reachable metric, so no reachable path ties it, and inside
// int16.
constexpr std::int16_t kUnreachable =
    static_cast<std::int16_t>(-2 * static_cast<int>(kConvMaxBlockBits + 1));
static_assert(kUnreachable - static_cast<int>(kConvMaxBlockBits) >=
              std::numeric_limits<std::int16_t>::min());
static_assert(kUnreachable + static_cast<int>(kConvMaxBlockBits) <
              -static_cast<int>(kConvMaxBlockBits));

// Per-thread decode scratch: a rate-match layout cache (a monitor sees only
// a handful of (coded_bits, target_bits) shapes, one per (payload size,
// aggregation level) pair) and prefix sums for callers that pass none.
struct DecodeScratch {
  struct CountsEntry {
    std::size_t coded = 0;
    std::size_t target = 0;
    std::vector<int> counts;
  };
  std::vector<CountsEntry> counts_cache;
  std::vector<std::int32_t> prefix;

  const std::vector<int>& counts_for(std::size_t coded, std::size_t target) {
    for (const auto& e : counts_cache) {
      if (e.coded == coded && e.target == target) return e.counts;
    }
    counts_cache.push_back({coded, target, rate_match_counts(coded, target)});
    return counts_cache.back().counts;
  }
};

DecodeScratch& decode_scratch() {
  thread_local DecodeScratch ws;
  return ws;
}

}  // namespace

util::BitVec conv_encode(const util::BitVec& payload) {
  util::BitVec out;
  std::uint32_t state = 0;
  const std::size_t total = payload.size() + kConvTailBits;
  for (std::size_t i = 0; i < total; ++i) {
    const int bit = i < payload.size() ? (payload.bit(i) ? 1 : 0) : 0;
    const std::uint32_t reg = make_reg(bit, state);
    const std::uint8_t o = kBranchOut[reg];
    for (int k = 0; k < kConvRateInv; ++k) out.push_bit(((o >> k) & 1) != 0);
    state = reg >> 1;
  }
  return out;
}

std::vector<int> rate_match_counts(std::size_t coded_bits,
                                   std::size_t target_bits) {
  // counts[i] = occurrences of mother-code bit i in the rate-matched
  // block: floor((i+1)*T/N) - floor(i*T/N). Uniformly spreads punctures
  // (T < N) and repetitions (T > N) — the effect of LTE's sub-block
  // interleaver + circular buffer without modelling the interleaver.
  std::vector<int> counts(coded_bits, 0);
  for (std::size_t i = 0; i < coded_bits; ++i) {
    const auto lo = (i * target_bits) / coded_bits;
    const auto hi = ((i + 1) * target_bits) / coded_bits;
    counts[i] = static_cast<int>(hi - lo);
  }
  return counts;
}

util::BitVec rate_match(const util::BitVec& coded, std::size_t target_bits) {
  // Output bit j repeats mother bit floor(((j + 1) * N - 1) / T), the bit
  // whose rate_match_counts range holds j. The quotient is stepped by N/T
  // per output bit, so no division runs per bit.
  const std::size_t n = coded.size();
  const std::size_t t = target_bits;
  util::BitVec out;
  if (n == 0 || t == 0) return out;
  out.reserve(t);
  const std::size_t dq = n / t;
  const std::size_t dr = n % t;
  std::size_t q = (n - 1) / t;
  std::size_t r = (n - 1) % t;
  for (std::size_t off = 0; off < t; off += util::BitVec::kWordBits) {
    const std::size_t len = std::min(util::BitVec::kWordBits, t - off);
    std::uint64_t word = 0;
    for (std::size_t k = 0; k < len; ++k) {
      word = (word << 1) | (coded.bit(q) ? 1u : 0u);
      q += dq;
      r += dr;
      if (r >= t) {
        r -= t;
        ++q;
      }
    }
    out.push_uint(word, len);
  }
  return out;
}

util::BitVec conv_decode_reference(const util::BitVec& received,
                                   std::size_t payload_bits) {
  const std::size_t steps = payload_bits + kConvTailBits;
  const std::size_t coded_bits = kConvRateInv * steps;

  std::vector<int> llr(coded_bits, 0);
  {
    const auto counts = rate_match_counts(coded_bits, received.size());
    std::size_t j = 0;
    for (std::size_t i = 0; i < coded_bits; ++i) {
      for (int c = 0; c < counts[i]; ++c) {
        llr[i] += received.bit(j++) ? 1 : -1;
      }
    }
  }

  constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;
  std::vector<std::int32_t> metric(kNumStates, kNegInf);
  metric[0] = 0;
  std::vector<std::int32_t> next_metric(kNumStates);
  std::vector<std::array<std::uint8_t, kNumStates>> survivor(steps);
  std::vector<std::array<std::uint8_t, kNumStates>> prev_state(steps);

  for (std::size_t t = 0; t < steps; ++t) {
    std::fill(next_metric.begin(), next_metric.end(), kNegInf);
    const int max_input = t < payload_bits ? 1 : 0;
    for (int s = 0; s < kNumStates; ++s) {
      if (metric[static_cast<std::size_t>(s)] == kNegInf) continue;
      for (int u = 0; u <= max_input; ++u) {
        const std::uint32_t reg = make_reg(u, static_cast<std::uint32_t>(s));
        std::int32_t gain = 0;
        for (std::size_t k = 0; k < kGenerators.size(); ++k) {
          const int v = llr[kConvRateInv * t + k];
          gain += parity(reg & kGenerators[k]) ? v : -v;
        }
        const auto ns = static_cast<std::size_t>(reg >> 1);
        const std::int32_t cand = metric[static_cast<std::size_t>(s)] + gain;
        if (cand > next_metric[ns]) {
          next_metric[ns] = cand;
          survivor[t][ns] = static_cast<std::uint8_t>(u);
          prev_state[t][ns] = static_cast<std::uint8_t>(s);
        }
      }
    }
    metric.swap(next_metric);
  }

  util::BitVec decoded(payload_bits);
  std::size_t state = 0;
  for (std::size_t t = steps; t-- > 0;) {
    if (t < payload_bits) decoded.set_bit(t, survivor[t][state] != 0);
    state = prev_state[t][state];
  }
  return decoded;
}

void vote_prefix(const util::BitVec& bits, std::int32_t* pre) {
  const std::size_t n = bits.size();
  std::int32_t acc = 0;
  pre[0] = 0;
  for (std::size_t off = 0; off < n; off += util::BitVec::kWordBits) {
    std::uint64_t v = bits.window(off);
    const std::size_t len = std::min(util::BitVec::kWordBits, n - off);
    for (std::size_t j = 0; j < len; ++j) {
      acc += (v >> 63) != 0 ? 1 : -1;
      v <<= 1;
      pre[off + j + 1] = acc;
    }
  }
}

ConvDecodeResult conv_decode(const util::BitVec& received,
                             std::size_t payload_bits, util::BitVec& decoded,
                             const std::int32_t* prefix,
                             std::int32_t abort_below) {
  PBECC_PROF_SCOPE("viterbi");
  const std::size_t target = received.size();
  if (target > kConvMaxBlockBits) {
    throw std::invalid_argument("conv_decode: block exceeds kConvMaxBlockBits");
  }
  if (payload_bits > kConvMaxPayloadBits) {
    throw std::invalid_argument(
        "conv_decode: payload exceeds kConvMaxPayloadBits");
  }
  const std::size_t steps = payload_bits + kConvTailBits;
  const std::size_t coded_bits = kConvRateInv * steps;

  auto& ws = decode_scratch();
  if (prefix == nullptr) {
    ws.prefix.resize(target + 1);
    vote_prefix(received, ws.prefix.data());
    prefix = ws.prefix.data();
  }

  // Per-mother-bit log-likelihoods: the vote over the bit's rate-matched
  // copies, |llr| <= copies <= T.
  std::int16_t llr[kConvRateInv * kMaxSteps];
  {
    const auto& counts = ws.counts_for(coded_bits, target);
    std::size_t j = 0;
    for (std::size_t i = 0; i < coded_bits; ++i) {
      const auto c = static_cast<std::size_t>(counts[i]);
      llr[i] = static_cast<std::int16_t>(prefix[j + c] - prefix[j]);
      j += c;
    }
  }

  // suffix[t]: the most any path can still gain from step t on (each step
  // contributes at most |v0|+|v1|+|v2|), the exact bound behind the early
  // abort.
  std::int32_t suffix[kMaxSteps + 1];
  suffix[steps] = 0;
  for (std::size_t t = steps; t-- > 0;) {
    const std::int16_t* v = llr + kConvRateInv * t;
    suffix[t] = suffix[t + 1] + std::abs(v[0]) + std::abs(v[1]) +
                std::abs(v[2]);
  }

  std::int16_t metric[kNumStates];
  std::int16_t next[kNumStates];
  std::fill_n(metric, kNumStates, kUnreachable);
  metric[0] = 0;

  // One traceback decision per (step, state): the destination state alone
  // determines the input bit (u = ns >> 5) and all but the lowest bit of
  // the predecessor, so the ACS only records which of the two won.
  std::uint8_t take[kMaxSteps][kNumStates];

  for (std::size_t t = 0; t < steps; ++t) {
    const std::int16_t* v = llr + kConvRateInv * t;
    std::int16_t gain[kButterflies];
    for (int i = 0; i < kButterflies; ++i) {
      const auto k = static_cast<std::size_t>(i);
      gain[i] = static_cast<std::int16_t>(kGainSign[0][k] * v[0] +
                                          kGainSign[1][k] * v[1] +
                                          kGainSign[2][k] * v[2]);
    }

    // Butterfly i: predecessors p0 = 2i and p1 = 2i + 1 reach destination
    // i with input 0 and i + 32 with input 1. The tie-break keeps p0
    // (strict >), matching the reference decoder's source-ascending scan
    // bit for bit.
    std::uint8_t* tk = take[t];
    for (int i = 0; i < kButterflies; ++i) {
      const std::int16_t a = metric[2 * i];
      const std::int16_t b = metric[2 * i + 1];
      const std::int16_t g = gain[i];
      const auto c0 = static_cast<std::int16_t>(a + g);
      const auto c1 = static_cast<std::int16_t>(b - g);
      const auto d0 = static_cast<std::int16_t>(a - g);
      const auto d1 = static_cast<std::int16_t>(b + g);
      next[i] = c1 > c0 ? c1 : c0;
      tk[i] = c1 > c0 ? 1 : 0;
      next[i + kButterflies] = d1 > d0 ? d1 : d0;
      tk[i + kButterflies] = d1 > d0 ? 1 : 0;
    }
    // The zero tail has no input-1 branches.
    if (t >= payload_bits) {
      std::fill_n(next + kButterflies, kButterflies, kUnreachable);
    }
    std::copy_n(next, kNumStates, metric);

    // Early abort: when the best surviving metric plus the largest possible
    // remaining gain is still below the caller's floor, no codeword this
    // decode could return would be accepted. (The floor maps 1:1 to the
    // acceptance test the caller runs afterwards, so this never changes an
    // outcome.) The max-reduction runs every 8th step, so a doomed decode
    // survives at most 7 extra steps.
    if (abort_below != INT32_MIN && (t & 7) == 7) {
      std::int16_t best = kUnreachable;
      for (const std::int16_t m : metric) best = std::max(best, m);
      if (best + suffix[t + 1] < abort_below) {
        decoded.clear();
        return {true, 0};
      }
    }
  }

  // Trace back from state 0, where the zero tail always lands.
  std::uint64_t words[(kMaxSteps + 63) / 64] = {};
  std::size_t state = 0;
  for (std::size_t t = steps; t-- > 0;) {
    if (t < payload_bits && (state >> 5) != 0) {
      words[t / 64] |= 1ULL << (63 - t % 64);
    }
    state = ((state << 1) & 63) | take[t][state];
  }
  decoded.clear();
  for (std::size_t off = 0; off < payload_bits; off += 64) {
    const std::size_t n = std::min<std::size_t>(64, payload_bits - off);
    decoded.push_uint(words[off / 64] >> (64 - n), n);
  }
  return {false, metric[0]};
}

}  // namespace pbecc::phy
