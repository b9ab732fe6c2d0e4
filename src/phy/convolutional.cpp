#include "phy/convolutional.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "obs/profile.h"
#include "util/arena.h"

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

// Workspace for the lockstep batch decoder: one arena per decode thread
// (pool workers included) plus a rate-match layout cache — a monitor sees
// only a handful of (coded_bits, target_bits) shapes, one per (payload
// size, aggregation level) pair. Every per-batch array lives in the arena
// and is recycled wholesale, so after warm-up a batch performs zero heap
// allocations.
struct BatchScratch {
  util::Arena arena;

  struct CountsEntry {
    std::size_t coded = 0;
    std::size_t target = 0;
    std::vector<int> counts;
  };
  std::vector<CountsEntry> counts_cache;

  const std::vector<int>& counts_for(std::size_t coded, std::size_t target) {
    for (const auto& e : counts_cache) {
      if (e.coded == coded && e.target == target) return e.counts;
    }
    counts_cache.push_back({coded, target, rate_match_counts(coded, target)});
    return counts_cache.back().counts;
  }
};

BatchScratch& batch_scratch() {
  thread_local BatchScratch ws;
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
  const auto counts = rate_match_counts(coded.size(), target_bits);
  util::BitVec out;
  for (std::size_t i = 0; i < coded.size(); ++i) {
    for (int c = 0; c < counts[i]; ++c) out.push_bit(coded.bit(i));
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

void conv_decode_batch(const BatchDecodeJob* jobs, int n_jobs,
                       std::size_t payload_bits, BatchDecodeResult* results) {
  PBECC_PROF_SCOPE("viterbi_batch");
  if (n_jobs <= 0) return;
  const auto L = static_cast<std::size_t>(
      n_jobs <= kMaxDecodeLanes ? n_jobs : kMaxDecodeLanes);
  const std::size_t steps = payload_bits + kConvTailBits;
  const std::size_t coded_bits = kConvRateInv * steps;
  const std::size_t target = jobs[0].received->size();
  constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;

  auto& ws = batch_scratch();
  ws.arena.reset();

  // Lane-major (structure-of-arrays) layout throughout: element i of lane
  // l lives at [i * L + l], so the innermost loops below run over
  // contiguous lanes and vectorize.

  // Per-mother-bit log-likelihoods, one column per lane. All lanes share
  // one rate-match layout — that is what makes the batch a batch.
  std::int32_t* llr = ws.arena.alloc<std::int32_t>(coded_bits * L);
  {
    const auto& counts = ws.counts_for(coded_bits, target);
    std::int32_t* own_prefix = nullptr;
    for (std::size_t l = 0; l < L; ++l) {
      if (jobs[l].received->size() != target) {
        throw std::invalid_argument("conv_decode_batch: lanes differ in size");
      }
      const std::int32_t* pre = jobs[l].prefix;
      if (pre == nullptr) {
        if (own_prefix == nullptr) {
          own_prefix = ws.arena.alloc<std::int32_t>(target + 1);
        }
        vote_prefix(*jobs[l].received, own_prefix);
        pre = own_prefix;
      }
      std::size_t j = 0;
      for (std::size_t i = 0; i < coded_bits; ++i) {
        const auto c = static_cast<std::size_t>(counts[i]);
        llr[i * L + l] = pre[j + c] - pre[j];
        j += c;
      }
    }
  }

  // suffix_gain[t][l]: the most any path can still gain from step t on
  // (each step contributes at most |v0|+|v1|+|v2|) — the exact bound
  // behind the per-lane early abort.
  std::int32_t* suffix = ws.arena.alloc<std::int32_t>((steps + 1) * L);
  std::fill_n(suffix + steps * L, L, 0);
  for (std::size_t t = steps; t-- > 0;) {
    const std::int32_t* v = llr + kConvRateInv * t * L;
    for (std::size_t l = 0; l < L; ++l) {
      suffix[t * L + l] = suffix[(t + 1) * L + l] + std::abs(v[l]) +
                          std::abs(v[L + l]) + std::abs(v[2 * L + l]);
    }
  }

  std::int32_t* metric = ws.arena.alloc<std::int32_t>(kNumStates * L);
  std::int32_t* next = ws.arena.alloc<std::int32_t>(kNumStates * L);
  std::fill_n(metric, kNumStates * L, kNegInf);
  for (std::size_t l = 0; l < L; ++l) metric[l] = 0;  // state 0 live

  // One traceback bit per (step, state, lane): the destination state alone
  // determines the input bit (u = ns >> 5) and all but the lowest bit of
  // the predecessor, so the ACS only needs to remember which of the two
  // predecessors won.
  std::uint8_t* take = ws.arena.alloc<std::uint8_t>(steps * kNumStates * L);

  bool aborted[kMaxDecodeLanes] = {};
  bool any_abort_enabled = false;
  for (std::size_t l = 0; l < L; ++l) {
    if (jobs[l].abort_below != INT32_MIN) any_abort_enabled = true;
  }
  std::size_t n_live = L;

  for (std::size_t t = 0; t < steps; ++t) {
    // Branch gain per 3-bit output pattern, per lane.
    std::int32_t gains[8 * kMaxDecodeLanes];
    const std::int32_t* v = llr + kConvRateInv * t * L;
    for (int p = 0; p < 8; ++p) {
      std::int32_t* g = gains + static_cast<std::size_t>(p) * L;
      for (std::size_t l = 0; l < L; ++l) {
        g[l] = ((p & 1) != 0 ? v[l] : -v[l]) +
               ((p & 2) != 0 ? v[L + l] : -v[L + l]) +
               ((p & 4) != 0 ? v[2 * L + l] : -v[2 * L + l]);
      }
    }

    // Destination-major ACS: dest ns has exactly two predecessors,
    // p0 = (ns << 1) & 63 and p1 = p0 | 1, both reached with input
    // u = ns >> 5. Tie-break keeps p0 (strict >), matching the reference
    // decoder's source-ascending scan bit-for-bit. During the zero tail
    // only u = 0 destinations exist.
    const int ns_end = t < payload_bits ? kNumStates : kNumStates / 2;
    std::uint8_t* tk = take + t * kNumStates * L;
    for (int ns = 0; ns < ns_end; ++ns) {
      const int u = ns >> 5;
      const int p0 = (ns << 1) & 63;
      const std::uint8_t g0 = kBranchOut[static_cast<std::size_t>((u << 6) | p0)];
      const std::uint8_t g1 =
          kBranchOut[static_cast<std::size_t>((u << 6) | (p0 | 1))];
      const std::int32_t* m0 = metric + static_cast<std::size_t>(p0) * L;
      const std::int32_t* m1 = m0 + L;
      const std::int32_t* ga = gains + static_cast<std::size_t>(g0) * L;
      const std::int32_t* gb = gains + static_cast<std::size_t>(g1) * L;
      std::int32_t* nx = next + static_cast<std::size_t>(ns) * L;
      std::uint8_t* tt = tk + static_cast<std::size_t>(ns) * L;
      for (std::size_t l = 0; l < L; ++l) {
        const std::int32_t c0 = m0[l] + ga[l];
        const std::int32_t c1 = m1[l] + gb[l];
        const bool sel = c1 > c0;
        nx[l] = sel ? c1 : c0;
        tt[l] = sel ? 1 : 0;
      }
    }
    if (ns_end < kNumStates) {
      std::fill(next + static_cast<std::size_t>(ns_end) * L,
                next + static_cast<std::size_t>(kNumStates) * L, kNegInf);
    }
    std::swap(metric, next);

    // Early abort: a lane whose best surviving metric plus the largest
    // possible remaining gain is still below its caller-supplied floor can
    // never produce an accepted codeword — stop charging it work the
    // moment that is provable. (The floor maps 1:1 to the acceptance test
    // the caller runs afterwards, so this never changes an outcome.) The
    // 64xL max-reduction costs about as much as one ACS step, so it runs
    // every 8th step: a doomed lane survives at most 7 extra steps, which
    // is far cheaper than paying the reduction at every one.
    if (any_abort_enabled && (t & 7) == 7) {
      std::int32_t best[kMaxDecodeLanes];
      std::fill_n(best, L, kNegInf);
      for (int s = 0; s < kNumStates; ++s) {
        const std::int32_t* m = metric + static_cast<std::size_t>(s) * L;
        for (std::size_t l = 0; l < L; ++l) {
          if (m[l] > best[l]) best[l] = m[l];
        }
      }
      const std::int32_t* suf = suffix + (t + 1) * L;
      for (std::size_t l = 0; l < L; ++l) {
        if (aborted[l] || jobs[l].abort_below == INT32_MIN) continue;
        if (best[l] + suf[l] < jobs[l].abort_below) {
          aborted[l] = true;
          --n_live;
        }
      }
      if (n_live == 0) break;
    }
  }

  for (std::size_t l = 0; l < L; ++l) {
    BatchDecodeResult& r = results[l];
    if (aborted[l]) {
      r.decoded = util::BitVec{};
      r.aborted = true;
      r.metric = 0;
      continue;
    }
    r.aborted = false;
    r.metric = metric[l];  // state 0, where the zero tail always lands
    util::BitVec out(payload_bits);
    std::size_t state = 0;
    for (std::size_t t = steps; t-- > 0;) {
      if (t < payload_bits) out.set_bit(t, (state >> 5) != 0);
      state = ((state << 1) & 63) |
              take[(t * kNumStates + state) * L + l];
    }
    r.decoded = std::move(out);
  }
}

}  // namespace pbecc::phy
