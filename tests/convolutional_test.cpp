// Tests for the 36.212-style convolutional code and the convolutional
// PDCCH mode (the srsLTE-equivalent path of the paper's decoder).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "decoder/blind_decoder.h"
#include "phy/convolutional.h"
#include "phy/pdcch.h"
#include "util/rng.h"

namespace pbecc::phy {
namespace {

util::BitVec random_payload(util::Rng& rng, std::size_t n) {
  util::BitVec b;
  for (std::size_t i = 0; i < n; ++i) b.push_bit(rng.bernoulli(0.5));
  return b;
}

// One block through the production kernel, no abort floor.
util::BitVec decode(const util::BitVec& block, std::size_t payload_bits) {
  util::BitVec decoded;
  conv_decode(block, payload_bits, decoded);
  return decoded;
}

TEST(Convolutional, EncodeLength) {
  util::BitVec payload(40);
  const auto coded = conv_encode(payload);
  EXPECT_EQ(coded.size(), 3u * (40 + kConvTailBits));
}

TEST(Convolutional, CleanRoundtrip) {
  util::Rng rng{5};
  for (int trial = 0; trial < 50; ++trial) {
    const auto payload = random_payload(rng, 20 + trial % 60);
    const auto coded = conv_encode(payload);
    EXPECT_EQ(decode(coded, payload.size()), payload) << trial;
  }
}

TEST(Convolutional, RateMatchRepetitionRoundtrip) {
  util::Rng rng{7};
  const auto payload = random_payload(rng, 62);
  const auto coded = conv_encode(payload);
  // Expand to 2x: every mother bit appears twice.
  const auto block = rate_match(coded, 2 * coded.size());
  EXPECT_EQ(block.size(), 2 * coded.size());
  EXPECT_EQ(decode(block, payload.size()), payload);
}

TEST(Convolutional, PuncturedRoundtrip) {
  util::Rng rng{9};
  const auto payload = random_payload(rng, 62);  // 78+tail: 252 mother bits
  const auto coded = conv_encode(payload);
  // Keep only ~57%: still decodes cleanly (effective rate ~0.58).
  const auto block = rate_match(coded, 144);
  EXPECT_EQ(decode(block, payload.size()), payload);
}

// rate_match's closed-form position map writes exactly the counts-based
// expansion (mother bit i repeated counts[i] times) for every payload of
// 20-80 bits at every target from AL1 to NR's AL16.
TEST(Convolutional, RateMatchEqualsCountsExpansion) {
  util::Rng rng{41};
  for (std::size_t payload_bits = 20; payload_bits <= 80; ++payload_bits) {
    const auto coded = conv_encode(random_payload(rng, payload_bits));
    for (std::size_t target = 72; target <= 1152; ++target) {
      const auto counts = rate_match_counts(coded.size(), target);
      util::BitVec want;
      for (std::size_t i = 0; i < coded.size(); ++i) {
        for (int c = 0; c < counts[i]; ++c) want.push_bit(coded.bit(i));
      }
      ASSERT_EQ(rate_match(coded, target), want)
          << "payload " << payload_bits << " target " << target;
    }
  }
}

TEST(Convolutional, RateMatchCountsConserve) {
  for (std::size_t target : {72u, 144u, 288u, 576u}) {
    const auto counts = rate_match_counts(252, target);
    std::size_t total = 0;
    for (int c : counts) {
      EXPECT_GE(c, 0);
      total += static_cast<std::size_t>(c);
    }
    EXPECT_EQ(total, target);
  }
}

TEST(Convolutional, CorrectsBitErrors) {
  util::Rng rng{11};
  const auto payload = random_payload(rng, 62);
  const auto coded = conv_encode(payload);
  auto block = rate_match(coded, 288);  // AL4-equivalent redundancy
  int corrected = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    auto noisy = block;
    for (std::size_t i = 0; i < noisy.size(); ++i) {
      if (rng.bernoulli(0.04)) noisy.flip_bit(i);
    }
    corrected += decode(noisy, payload.size()) == payload ? 1 : 0;
  }
  // 4% BER over 288 bits = ~11 flipped; the code recovers almost always.
  EXPECT_GT(corrected, trials * 8 / 10);
}

TEST(Convolutional, BeatsRepetitionAtSameRedundancy) {
  // Same region budget (AL4 = 288 bits), same 4% BER: the convolutional
  // code should decode at least as often as majority-vote repetition.
  util::Rng rng{13};
  CellConfig rep_cell{1, 20.0};
  CellConfig conv_cell{1, 20.0};
  conv_cell.pdcch_coding = PdcchCoding::kConvolutional;

  int rep_ok = 0, conv_ok = 0;
  const int trials = 60;
  for (int t = 0; t < trials; ++t) {
    for (const bool conv : {false, true}) {
      const auto& cell = conv ? conv_cell : rep_cell;
      PdcchBuilder b(cell, t);
      Dci d;
      d.rnti = 0x321;
      d.format = DciFormat::kFormat1;
      d.n_prbs = 30;
      d.mcs = {10, 1};
      ASSERT_TRUE(b.add(d, 4));
      auto sf = std::move(b).build();
      phy::apply_bit_noise(sf, 0.04, rng);
      decoder::BlindDecoder dec{cell};
      const auto msgs = dec.decode(sf);
      const bool ok = msgs.size() == 1 && msgs[0].rnti == 0x321;
      (conv ? conv_ok : rep_ok) += ok ? 1 : 0;
    }
  }
  EXPECT_GE(conv_ok, rep_ok);
  EXPECT_GT(conv_ok, trials * 3 / 4);
}

// Equivalence sweep (DESIGN.md §14): 10k codewords, every one decoded
// byte-identically to the reference decoder, at clean / light / heavy
// bit-error rates and every rate-match shape from AL1 to NR's AL16
// (72..1152 bits). Payloads span 20-80 bits, covering every real DCI
// message with its CRC (LTE 46-69 bits, NR 53-67). Every other codeword
// passes its own vote prefix sums, as the blind decoder does.
TEST(Convolutional, BatchMatchesReference10k) {
  util::Rng rng{29};
  const double bers[] = {0.0, 1e-3, 1e-2};
  const std::size_t targets[] = {72, 144, 288, 576, 1152};
  util::BitVec decoded;
  std::vector<std::int32_t> prefix;
  for (int shape = 0; shape < 10000; ++shape) {
    const double ber = bers[shape % 3];
    const std::size_t payload_bits = 20 + static_cast<std::size_t>(shape) % 61;
    const std::size_t target = targets[shape % 5];
    auto block = rate_match(conv_encode(random_payload(rng, payload_bits)),
                            target);
    for (std::size_t i = 0; ber > 0 && i < block.size(); ++i) {
      if (rng.bernoulli(ber)) block.flip_bit(i);
    }
    const std::int32_t* pre = nullptr;
    if (shape % 2 == 1) {
      prefix.resize(block.size() + 1);
      vote_prefix(block, prefix.data());
      pre = prefix.data();
    }
    const auto r = conv_decode(block, payload_bits, decoded, pre);
    ASSERT_FALSE(r.aborted);  // no abort floor was set
    ASSERT_EQ(decoded, conv_decode_reference(block, payload_bits))
        << "codeword " << shape << " ber " << ber << " target " << target;
  }
}

// The reported metric must equal the re-encoded codeword's correlation
// with the received block — the identity the blind decoder relies on to
// replace its region-agreement re-encode pass.
TEST(Convolutional, BatchMetricEqualsReencodedCorrelation) {
  util::Rng rng{31};
  util::BitVec decoded;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t payload_bits = 24 + static_cast<std::size_t>(trial) % 40;
    const std::size_t target = trial % 2 == 0 ? 288 : 576;
    auto block = rate_match(conv_encode(random_payload(rng, payload_bits)),
                            target);
    for (std::size_t i = 0; i < block.size(); ++i) {
      if (rng.bernoulli(0.02)) block.flip_bit(i);
    }
    const auto res = conv_decode(block, payload_bits, decoded);
    ASSERT_FALSE(res.aborted);
    const auto re = rate_match(conv_encode(decoded), target);
    std::int32_t corr = 0;
    for (std::size_t i = 0; i < re.size(); ++i) {
      corr += re.bit(i) == block.bit(i) ? 1 : -1;
    }
    ASSERT_EQ(res.metric, corr) << trial;
  }
}

// Exact-safety of the early abort: an aborted decode must be one whose
// unaborted decode provably fails the caller's metric floor, and setting
// a floor must never change a surviving decode's output.
TEST(Convolutional, BatchEarlyAbortIsExactSafe) {
  util::Rng rng{37};
  const std::size_t payload_bits = 46;
  const std::size_t target = 288;
  util::BitVec da, dn;
  int aborted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Junk block: uniform random bits, nowhere near any codeword.
    util::BitVec block;
    for (std::size_t i = 0; i < target; ++i) block.push_bit(rng.bernoulli(0.5));
    // The blind decoder's floor: matches >= 85% of the block.
    const auto thr = static_cast<std::int32_t>(
        2 * ((85 * target + 99) / 100) - target);
    const auto ra = conv_decode(block, payload_bits, da, nullptr, thr);
    const auto rn = conv_decode(block, payload_bits, dn);
    if (ra.aborted) {
      ++aborted;
      // The abort claimed no completion reaches the floor; the full
      // decode's best metric must indeed sit below it.
      ASSERT_LT(rn.metric, thr) << trial;
      ASSERT_TRUE(da.empty()) << trial;
    } else {
      ASSERT_EQ(da, dn) << trial;
      ASSERT_EQ(ra.metric, rn.metric) << trial;
    }
    ASSERT_EQ(dn, conv_decode_reference(block, payload_bits)) << trial;
  }
  // Random noise correlates ~50% with any codeword: essentially every
  // junk block must have tripped the abort.
  EXPECT_GT(aborted, 290);
}

// The kernel's stated bounds: int16 path metrics are exact for blocks of
// up to kConvMaxBlockBits bits, and the traceback scratch holds payloads
// of up to kConvMaxPayloadBits bits. Extreme blocks inside the bounds
// decode exactly; anything past them is refused, not overflowed.
TEST(Convolutional, DecodeBoundsAreEnforced) {
  util::BitVec decoded;
  for (const std::size_t bits : {std::size_t{1152}, kConvMaxBlockBits}) {
    for (const bool ones : {false, true}) {
      const util::BitVec block(bits, ones);
      const auto r = conv_decode(block, 80, decoded);
      EXPECT_EQ(decoded, conv_decode_reference(block, 80))
          << bits << " bits of " << ones;
      // The all-zero codeword matches an all-zero block everywhere: the
      // largest metric any block of this size can produce.
      if (!ones) {
        EXPECT_EQ(r.metric, static_cast<std::int32_t>(bits));
      }
    }
  }
  const util::BitVec longest(2 * (kConvMaxPayloadBits + kConvTailBits), true);
  conv_decode(longest, kConvMaxPayloadBits, decoded);
  EXPECT_EQ(decoded, conv_decode_reference(longest, kConvMaxPayloadBits));

  EXPECT_THROW(conv_decode(util::BitVec(kConvMaxBlockBits + 1), 80, decoded),
               std::invalid_argument);
  EXPECT_THROW(
      conv_decode(util::BitVec(1152), kConvMaxPayloadBits + 1, decoded),
      std::invalid_argument);
}

TEST(ConvolutionalPdcch, BlindDecodeAllFormats) {
  CellConfig cell{1, 20.0};
  cell.pdcch_coding = PdcchCoding::kConvolutional;
  for (const auto fmt : kLteDciFormats) {
    PdcchBuilder b(cell, 0);
    Dci d;
    d.rnti = 0x234;
    d.format = fmt;
    d.n_prbs = fmt == DciFormat::kFormat0 ? 4 : 25;
    d.mcs = {9, format_is_mimo(fmt) ? 2 : 1};
    // Smallest AL with >= 2x redundancy for this format's length.
    const int steps = dci_payload_bits(fmt) + 16 + kConvTailBits;
    const int al = 2 * steps <= 2 * kBitsPerCce ? 2 : 4;
    ASSERT_TRUE(b.add(d, al)) << static_cast<int>(fmt);
    const auto sf = std::move(b).build();
    decoder::BlindDecoder dec{cell};
    const auto msgs = dec.decode(sf);
    ASSERT_EQ(msgs.size(), 1u) << "format " << static_cast<int>(fmt);
    EXPECT_EQ(msgs[0].format, fmt);
    EXPECT_EQ(msgs[0].rnti, 0x234);
    EXPECT_EQ(msgs[0].n_prbs, d.n_prbs);
  }
}

TEST(ConvolutionalPdcch, Al1InfeasibleForLongFormats) {
  CellConfig cell{1, 20.0};
  cell.pdcch_coding = PdcchCoding::kConvolutional;
  PdcchBuilder b(cell, 0);
  Dci d;
  d.rnti = 0x234;
  d.format = DciFormat::kFormat2;  // longest format
  d.n_prbs = 25;
  d.mcs = {9, 2};
  // 69+16 bits + tail ~ 91 steps: needs >= 182 coded bits, so neither AL1
  // (72) nor AL2 (144) suffices.
  EXPECT_FALSE(b.add(d, 1));
  EXPECT_FALSE(b.add(d, 2));
  EXPECT_TRUE(b.add(d, 4));
}

TEST(ConvolutionalPdcch, NoFalsePositivesOnNoise) {
  CellConfig cell{1, 20.0};
  cell.pdcch_coding = PdcchCoding::kConvolutional;
  util::Rng rng{17};
  decoder::BlindDecoder dec{cell};
  int phantom = 0;
  for (int t = 0; t < 100; ++t) {
    PdcchBuilder b(cell, t);
    auto sf = std::move(b).build();
    std::fill(sf.cce_used.begin(), sf.cce_used.end(), true);
    phy::apply_bit_noise(sf, 0.5, rng);
    phantom += static_cast<int>(dec.decode(sf).size());
  }
  EXPECT_LE(phantom, 1);
}

}  // namespace
}  // namespace pbecc::phy
