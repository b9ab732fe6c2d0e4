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
// tests hold conv_decode to; it allocates its trellis per call.
util::BitVec conv_decode_reference(const util::BitVec& received,
                                   std::size_t payload_bits);

// ---------------------------------------------------------------------------
// State-parallel Viterbi (DESIGN.md §14): the only production decoder.
//
// conv_decode decodes one candidate block; its add-compare-select covers
// all 32 butterflies of the 64-state trellis per step with int16 path
// metrics, so the default optimized build vectorizes it across states.
// Its output is byte-exact with conv_decode_reference, early abort aside.

// Largest block conv_decode accepts: a path metric is bounded by the block
// length, and int16 metrics stay exact up to here (the unreachable-state
// sentinel sits below -2 * kConvMaxBlockBits).
inline constexpr std::size_t kConvMaxBlockBits = 8191;
// Largest payload conv_decode accepts: its traceback scratch holds
// kConvMaxPayloadBits + kConvTailBits trellis steps. Every DCI message
// with its CRC is well under it.
inline constexpr std::size_t kConvMaxPayloadBits = 250;

// Vote prefix sums over `bits`: pre[0] = 0 and pre[j + 1] = pre[j] + (bit j
// ? +1 : -1), so `pre` holds bits.size() + 1 entries. The span is read a
// word at a time.
void vote_prefix(const util::BitVec& bits, std::int32_t* pre);

struct ConvDecodeResult {
  bool aborted = false;
  // Final state-0 path metric (valid when !aborted): the correlation of
  // the decoded codeword with the received block.
  std::int32_t metric = 0;
};

// Decode `received` to `payload_bits` information bits into `decoded`
// (left empty when aborted).
//
// `prefix`: optional vote prefix sums over `received` (vote_prefix). The
// blind decoder tries several DCI formats against the same span; sharing
// one prefix makes each format's rate-matched log-likelihoods cost a
// subtraction per mother bit. nullptr: conv_decode computes it itself.
//
// `abort_below`: exact-safe early abort. The decode gives up as soon as no
// completion of any surviving path can reach a final state-0 metric >=
// abort_below (metric = matches - mismatches against the received block,
// so the caller derives it from its acceptance threshold). INT32_MIN
// disables the abort. An aborted decode is one the caller would provably
// have rejected, never a maybe.
//
// Throws std::invalid_argument when the block exceeds kConvMaxBlockBits or
// the payload exceeds kConvMaxPayloadBits.
ConvDecodeResult conv_decode(const util::BitVec& received,
                             std::size_t payload_bits, util::BitVec& decoded,
                             const std::int32_t* prefix = nullptr,
                             std::int32_t abort_below = INT32_MIN);

}  // namespace pbecc::phy
