// LTE-style convolutional coding for the control channel.
//
// The paper's prototype reuses srsLTE's convolutional decoder (§5); this
// module provides the equivalent: the 3GPP 36.212 rate-1/3, constraint-
// length-7 code (generators 133/171/165 octal) with circular-buffer rate
// matching to the aggregation-level capacity, and a hard-decision Viterbi
// decoder that treats punctured positions as erasures.
//
// Deviation from 36.212: we terminate the trellis with six zero tail bits
// instead of tail-biting (documented in DESIGN.md) — decoding is simpler
// and the behaviourally relevant property (coding gain growing with
// aggregation level) is identical.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bitvec.h"

namespace pbecc::phy {

inline constexpr int kConvConstraint = 7;   // K: 6 memory bits
inline constexpr int kConvRateInv = 3;      // rate 1/3
inline constexpr int kConvTailBits = kConvConstraint - 1;

// Encode `payload` (+ 6 zero tail bits) with the rate-1/3 code:
// output length = 3 * (payload.size() + 6).
util::BitVec conv_encode(const util::BitVec& payload);

// Rate-match `coded` to exactly `target_bits` via a circular buffer:
// repetition when target > coded size, uniform puncturing otherwise.
util::BitVec rate_match(const util::BitVec& coded, std::size_t target_bits);

// Which mother-code positions survive rate matching to `target_bits`
// (inverse mapping used by the decoder to place received bits/erasures).
std::vector<int> rate_match_counts(std::size_t coded_bits,
                                   std::size_t target_bits);

// Smallest control region, in bits, that can carry a `msg_bits`-bit
// message: the rate-matched block must keep real redundancy (effective
// rate at most 1/2) or the decoder cannot recover the punctured positions.
// PdcchBuilder refuses and BlindDecoder skips any placement below it.
constexpr std::size_t conv_min_region_bits(std::size_t msg_bits) {
  return 2 * (msg_bits + kConvTailBits);
}

// Textbook hard-decision Viterbi decode of `received` (a rate-matched
// block) back to `payload_bits` information bits: punctured positions
// contribute no branch metric, repeated positions vote. The oracle the
// tests hold conv_decode_batch to; it allocates its trellis per call.
util::BitVec conv_decode_reference(const util::BitVec& received,
                                   std::size_t payload_bits);

// ---------------------------------------------------------------------------
// Batched lockstep decode (DESIGN.md §14): the only production Viterbi.
//
// The blind decoder tries the same (payload length, block length) shape at
// every candidate position of an aggregation level; conv_decode_batch
// decodes up to kMaxDecodeLanes such same-shape blocks through one trellis
// walk with lane-major (structure-of-arrays) path metrics, so the
// add-compare-select inner loops vectorize across candidates. Non-aborted
// lanes are byte-exact with conv_decode_reference — the decoder's
// determinism contract does not bend for speed.

inline constexpr int kMaxDecodeLanes = 16;

// Vote prefix sums over `bits`: pre[0] = 0 and pre[j + 1] = pre[j] + (bit j
// ? +1 : -1), so `pre` holds bits.size() + 1 entries. The span is read a
// word at a time.
void vote_prefix(const util::BitVec& bits, std::int32_t* pre);

struct BatchDecodeJob {
  const util::BitVec* received = nullptr;  // same size() for every lane
  // Optional vote prefix sums over `received` (vote_prefix). The blind
  // decoder tries ~5 DCI formats against the same span; sharing one
  // prefix lets every format's rate-matched log-likelihoods cost a
  // subtraction per mother bit. nullptr: the batch computes it itself.
  const std::int32_t* prefix = nullptr;
  // Exact-safe early abort: the decode gives up on this lane as soon as no
  // completion of any surviving path can reach a final state-0 correlation
  // metric >= abort_below (metric = matches - mismatches against the
  // received block, so the caller derives it from its acceptance
  // threshold). INT32_MIN disables the abort. An aborted lane is one the
  // caller would provably have rejected, never a maybe.
  std::int32_t abort_below = INT32_MIN;
};

struct BatchDecodeResult {
  util::BitVec decoded;   // empty when aborted
  bool aborted = false;
  // Final state-0 path metric (valid when !aborted): the correlation of
  // the decoded codeword with the received block.
  std::int32_t metric = 0;
};

// Decode `n_jobs` (1..kMaxDecodeLanes) equally-shaped blocks in lockstep.
// Every jobs[i].received must have the same size, every lane decodes to
// `payload_bits` information bits. Scratch comes from a per-thread arena:
// steady state performs no heap allocation.
void conv_decode_batch(const BatchDecodeJob* jobs, int n_jobs,
                       std::size_t payload_bits, BatchDecodeResult* results);

}  // namespace pbecc::phy
