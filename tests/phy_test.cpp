// Unit tests for src/phy: cell geometry, MCS tables, error models, DCI
// wire format, the synthetic PDCCH, and the wireless channel model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "nr/coreset.h"
#include "phy/cell_config.h"
#include "phy/channel.h"
#include "phy/dci.h"
#include "phy/error_model.h"
#include "phy/mcs.h"
#include "phy/pdcch.h"
#include "phy/transport_block.h"
#include "util/crc.h"
#include "util/digest.h"

namespace pbecc::phy {
namespace {

// ----------------------------------------------------------- cell config

TEST(CellConfig, PrbsPerBandwidth) {
  EXPECT_EQ(prbs_for_bandwidth_mhz(5.0), 25);
  EXPECT_EQ(prbs_for_bandwidth_mhz(10.0), 50);
  EXPECT_EQ(prbs_for_bandwidth_mhz(20.0), 100);
  EXPECT_EQ(prbs_for_bandwidth_mhz(1.4), 6);
  EXPECT_THROW(prbs_for_bandwidth_mhz(7.0), std::invalid_argument);
}

TEST(CellConfig, CceScalesWithBandwidth) {
  CellConfig c10{1, 10.0};
  CellConfig c20{2, 20.0};
  EXPECT_EQ(c10.n_cces() * 2, c20.n_cces());
  EXPECT_GT(c10.n_cces(), 0);
}

// ------------------------------------------------------------------- mcs

TEST(Mcs, TableShape) {
  EXPECT_EQ(cqi_entry(0).modulation_order, 0);
  EXPECT_EQ(cqi_entry(1).modulation_order, 2);   // QPSK
  EXPECT_EQ(cqi_entry(7).modulation_order, 4);   // 16QAM
  EXPECT_EQ(cqi_entry(15).modulation_order, 6);  // 64QAM
  EXPECT_THROW(cqi_entry(16), std::out_of_range);
  EXPECT_THROW(cqi_entry(-1), std::out_of_range);
}

TEST(Mcs, SpectralEfficiencyMonotonic) {
  for (int cqi = 2; cqi < kNumCqi; ++cqi) {
    EXPECT_GT(bits_per_prb(cqi, 1), bits_per_prb(cqi - 1, 1)) << "cqi " << cqi;
  }
}

TEST(Mcs, TwoStreamsDouble) {
  EXPECT_DOUBLE_EQ(bits_per_prb(10, 2), 2 * bits_per_prb(10, 1));
  // Stream counts clamp to [1, 2].
  EXPECT_DOUBLE_EQ(bits_per_prb(10, 5), bits_per_prb(10, 2));
  EXPECT_DOUBLE_EQ(bits_per_prb(10, 0), bits_per_prb(10, 1));
}

TEST(Mcs, PaperRateCeiling) {
  // Max ~1.8-1.9 kbit per PRB per subframe = 1.8-1.9 Mbit/s/PRB: the
  // paper's Fig 11(b) ceiling.
  const double peak = bits_per_prb(15, 2);
  EXPECT_GT(peak, 1700.0);
  EXPECT_LT(peak, 1950.0);
}

TEST(Mcs, CqiFromSinrMonotonicAndBounded) {
  int prev = 0;
  for (double s = -12; s <= 30; s += 0.5) {
    const int c = cqi_from_sinr_db(s);
    EXPECT_GE(c, prev);
    EXPECT_LE(c, 15);
    prev = c;
  }
  EXPECT_EQ(cqi_from_sinr_db(-20), 0);
  EXPECT_EQ(cqi_from_sinr_db(30), 15);
}

// ----------------------------------------------------------- error model

TEST(ErrorModel, TbErrorRateFormula) {
  // Matches 1-(1-p)^L computed directly.
  const double p = 1e-6, L = 40000;
  EXPECT_NEAR(tb_error_rate(p, L), 1.0 - std::pow(1.0 - p, L), 1e-10);
}

TEST(ErrorModel, TbErrorRateEdges) {
  EXPECT_DOUBLE_EQ(tb_error_rate(0.0, 1e5), 0.0);
  EXPECT_DOUBLE_EQ(tb_error_rate(1e-6, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(tb_error_rate(1.0, 10), 1.0);
}

TEST(ErrorModel, TbErrorRateMonotonic) {
  double prev = 0;
  for (double L = 1e3; L <= 2e5; L += 1e3) {
    const double e = tb_error_rate(3e-6, L);
    EXPECT_GE(e, prev);
    EXPECT_LE(e, 1.0);
    prev = e;
  }
}

TEST(ErrorModel, ResidualBerPaperAnchors) {
  // The paper's measured anchors (Fig 6): p ~ 1e-6 at -98 dBm and
  // ~5e-6 at -113 dBm.
  EXPECT_NEAR(residual_ber_from_rssi(-98.0), 1e-6, 1e-8);
  EXPECT_NEAR(residual_ber_from_rssi(-113.0), 5e-6, 5e-8);
  // Monotonically worse with weaker signal.
  EXPECT_GT(residual_ber_from_rssi(-110), residual_ber_from_rssi(-100));
  // Clamped.
  EXPECT_LE(residual_ber_from_rssi(-200), 1e-3);
  EXPECT_GE(residual_ber_from_rssi(-10), 1e-8);
}

TEST(ErrorModel, QpskBer) {
  // ~0.5 at very low SINR, vanishing at high SINR, monotone.
  EXPECT_NEAR(qpsk_ber(-30), 0.5, 0.05);
  EXPECT_LT(qpsk_ber(10), 1e-5);
  EXPECT_GT(qpsk_ber(0), qpsk_ber(5));
}

// ------------------------------------------------------------------- dci

TEST(Dci, FormatLengthsDistinctAndSmall) {
  for (int a = 0; a < kNumDciFormats; ++a) {
    for (int b = a + 1; b < kNumDciFormats; ++b) {
      EXPECT_NE(dci_payload_bits(static_cast<DciFormat>(a)),
                dci_payload_bits(static_cast<DciFormat>(b)));
    }
    // Paper §7: control messages are less than 70 bits.
    EXPECT_LT(dci_payload_bits(static_cast<DciFormat>(a)) + 16, 70 + 16);
  }
}

TEST(Dci, EncodeDecodeRoundtrip) {
  Dci d;
  d.rnti = 0x1234;
  d.format = DciFormat::kFormat1;
  d.prb_start = 17;
  d.n_prbs = 33;
  d.mcs = {11, 1};
  d.harq_id = 5;
  d.new_data = false;
  const auto bits = encode_dci(d);
  EXPECT_EQ(bits.size(),
            static_cast<std::size_t>(dci_payload_bits(d.format)) + 16);
  const auto back = decode_dci(bits, DciFormat::kFormat1, 100);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);
}

TEST(Dci, MimoRoundtrip) {
  Dci d;
  d.rnti = 0x0777;
  d.format = DciFormat::kFormat2;
  d.prb_start = 0;
  d.n_prbs = 100;
  d.mcs = {15, 2};
  d.harq_id = 7;
  const auto back = decode_dci(encode_dci(d), DciFormat::kFormat2, 100);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);
}

TEST(Dci, TwoStreamsRequireMimoFormat) {
  Dci d;
  d.rnti = 0x200;
  d.format = DciFormat::kFormat1;
  d.n_prbs = 4;
  d.mcs = {9, 2};
  EXPECT_THROW(encode_dci(d), std::invalid_argument);
}

TEST(Dci, WrongFormatRejectedByTag) {
  Dci d;
  d.rnti = 0x1111;
  d.format = DciFormat::kFormat1;
  d.n_prbs = 10;
  d.mcs = {8, 1};
  const auto bits = encode_dci(d);
  // Same bit string deliberately parsed as every other format must fail
  // (length mismatch or tag mismatch) — this is what kills the phantom
  // decodes that plagued format-blind monitors.
  for (int f = 0; f < kNumDciFormats; ++f) {
    if (static_cast<DciFormat>(f) == d.format) continue;
    EXPECT_FALSE(decode_dci(bits, static_cast<DciFormat>(f), 100).has_value());
  }
}

TEST(Dci, CorruptionDetected) {
  Dci d;
  d.rnti = 0x0456;
  d.format = DciFormat::kFormat1A;
  d.n_prbs = 8;
  d.mcs = {6, 1};
  auto bits = encode_dci(d);
  int rejected = 0, accepted_wrong = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    auto c = bits;
    c.flip_bit(i);
    const auto back = decode_dci(c, d.format, 100);
    if (!back.has_value()) {
      ++rejected;
    } else if (!(*back == d)) {
      // A flipped CRC bit re-targets the message to rnti^mask — LTE
      // monitors accept it; it just belongs to another (phantom) user.
      ++accepted_wrong;
    }
  }
  // All corruptions are either rejected or at least never mistaken for the
  // original message.
  EXPECT_EQ(rejected + accepted_wrong, static_cast<int>(bits.size()));
  EXPECT_GT(rejected, 0);
}

TEST(Dci, StructuralValidation) {
  Dci d;
  d.rnti = 0x0456;
  d.format = DciFormat::kFormat1;
  d.prb_start = 40;
  d.n_prbs = 20;
  d.mcs = {6, 1};
  const auto bits = encode_dci(d);
  // Fits a 100-PRB cell, not a 50-PRB cell.
  EXPECT_TRUE(decode_dci(bits, d.format, 100).has_value());
  EXPECT_FALSE(decode_dci(bits, d.format, 50).has_value());
}

TEST(Dci, InvalidRntiRangeRejected) {
  Dci d;
  d.rnti = 0x0010;  // below the C-RNTI floor
  d.format = DciFormat::kFormat1A;
  d.n_prbs = 4;
  d.mcs = {5, 1};
  EXPECT_FALSE(decode_dci(encode_dci(d), d.format, 100).has_value());
}

// The cheap CRC-first screen must be a sound filter for decode_dci: a
// screened-out message can never have decoded (no payload copy, no field
// parse), and every genuine message passes it. The screen is exactly
// "CRC residue lands in the C-RNTI window", so appending
// crc16(payload) ^ rnti to a random payload pins the residue to `rnti`
// and lets us probe both sides of every window boundary directly —
// random sampling would hit the narrow reject band (~0.1% of the 16-bit
// space) almost never.
TEST(Dci, CrcScreenNeverRejectsDecodable) {
  util::Rng rng{41};
  const Rnti out_of_range[] = {0x0000, 0x0001, 0x003C, 0xFFF4, 0xFFFE, 0xFFFF};
  const Rnti in_range[] = {kMinCRnti, 0x0456, 0x8A21, kMaxCRnti};
  for (int f = 0; f < kNumDciFormats; ++f) {
    const auto fmt = static_cast<DciFormat>(f);
    const auto payload_len = static_cast<std::size_t>(dci_payload_bits(fmt));
    for (int trial = 0; trial < 200; ++trial) {
      util::BitVec payload;
      for (std::size_t i = 0; i < payload_len; ++i) {
        payload.push_bit(rng.bernoulli(0.5));
      }
      const std::uint16_t residue = util::crc16(payload);
      for (const Rnti rnti : out_of_range) {
        util::BitVec bits = payload;
        bits.push_uint(static_cast<std::uint16_t>(residue ^ rnti), 16);
        EXPECT_FALSE(dci_crc_screen(bits, fmt)) << "format " << f;
        EXPECT_FALSE(decode_dci(bits, fmt, 100).has_value()) << "format " << f;
      }
      for (const Rnti rnti : in_range) {
        util::BitVec bits = payload;
        bits.push_uint(static_cast<std::uint16_t>(residue ^ rnti), 16);
        EXPECT_TRUE(dci_crc_screen(bits, fmt)) << "format " << f;
      }
    }
  }
  // Genuine messages always pass.
  Dci d;
  d.rnti = 0x0456;
  d.format = DciFormat::kFormat1;
  d.prb_start = 4;
  d.n_prbs = 20;
  d.mcs = {6, 1};
  EXPECT_TRUE(dci_crc_screen(encode_dci(d), d.format));
  // Wrong-length input is screened out, same as decode_dci rejects it.
  EXPECT_FALSE(dci_crc_screen(encode_dci(d), DciFormat::kFormat2));
}

// ----------------------------------------------------------------- pdcch

TEST(Pdcch, AggregationLevelFromSinr) {
  EXPECT_EQ(aggregation_level_for_sinr(15.0), 1);
  EXPECT_EQ(aggregation_level_for_sinr(10.0), 2);
  EXPECT_EQ(aggregation_level_for_sinr(4.0), 4);
  EXPECT_EQ(aggregation_level_for_sinr(0.0), 8);
}

TEST(Pdcch, RepetitionsThatFit) {
  EXPECT_EQ(repetitions_that_fit(72, 1), 1);
  EXPECT_EQ(repetitions_that_fit(73, 1), 0);
  EXPECT_EQ(repetitions_that_fit(60, 4), 4);
  EXPECT_EQ(repetitions_that_fit(0, 4), 0);
}

TEST(Pdcch, PlacementConsumesCces) {
  CellConfig cell{1, 10.0};
  PdcchBuilder b(cell, 5);
  const int total = cell.n_cces();
  EXPECT_EQ(b.cces_free(), total);

  Dci d;
  d.rnti = 0x300;
  d.format = DciFormat::kFormat1A;
  d.n_prbs = 4;
  d.mcs = {5, 1};
  ASSERT_TRUE(b.add(d, 4));
  EXPECT_EQ(b.cces_free(), total - 4);
  const auto sf = std::move(b).build();
  EXPECT_EQ(sf.sf_index, 5);
  EXPECT_EQ(sf.cell_id, 1u);
  EXPECT_EQ(sf.cce_used.popcount(0, sf.cce_used.size()), 4u);
}

TEST(Pdcch, RegionExhaustion) {
  CellConfig cell{1, 5.0};  // 21 CCEs
  PdcchBuilder b(cell, 0);
  Dci d;
  d.rnti = 0x300;
  d.format = DciFormat::kFormat1A;
  d.n_prbs = 1;
  d.mcs = {5, 1};
  int placed = 0;
  while (b.add(d, 8)) ++placed;
  EXPECT_EQ(placed, 2);  // 21 / 8 = 2 aligned slots
  // Smaller aggregation still fits in the leftovers.
  EXPECT_TRUE(b.add(d, 1));
}

TEST(Pdcch, InvalidAggregationThrows) {
  CellConfig cell{1, 10.0};
  PdcchBuilder b(cell, 0);
  Dci d;
  d.rnti = 0x300;
  d.format = DciFormat::kFormat1A;
  d.n_prbs = 1;
  d.mcs = {5, 1};
  EXPECT_THROW(b.add(d, 3), std::invalid_argument);
}

// Validation stays in add(): a DCI that encode_dci() would refuse throws
// at placement whether or not the region is ever built, and a format the
// convolutional code cannot carry at the requested level is refused there.
TEST(Pdcch, AddValidatesWithoutBuild) {
  const CellConfig cell{1, 10.0};
  Dci two_stream;
  two_stream.rnti = 0x300;
  two_stream.format = DciFormat::kFormat1A;  // no second-stream field
  two_stream.n_prbs = 4;
  two_stream.mcs = {9, 2};
  {
    PdcchBuilder b(cell, 0);
    EXPECT_THROW(b.add(two_stream, 4), std::invalid_argument);
    EXPECT_THROW(b.add_escalating(two_stream, 1), std::invalid_argument);
    EXPECT_EQ(b.cces_free(), cell.n_cces());
  }  // dropped unbuilt

  CellConfig conv{2, 20.0};
  conv.pdcch_coding = PdcchCoding::kConvolutional;
  Dci long_dci;
  long_dci.rnti = 0x301;
  long_dci.format = DciFormat::kFormat2;  // 69 bits on air: AL4 at least
  long_dci.n_prbs = 4;
  long_dci.mcs = {9, 2};
  PdcchBuilder b(conv, 0);
  EXPECT_FALSE(b.add(long_dci, 1));
  EXPECT_FALSE(b.add(long_dci, 2));
  EXPECT_EQ(b.cces_free(), conv.n_cces());
  EXPECT_TRUE(b.add_escalating(long_dci, 1));
  EXPECT_EQ(b.cces_free(), conv.n_cces() - 4);
}

// The builder's output on every cell type: seeded random DCI streams of
// every format the RAT allows, at every aggregation level, fed through
// add() and add_escalating() until the region is full (eight refusals in
// a row), for three regions per cell. Pinned to what the builder produced
// when add() still wrote each message into the plane itself: the
// accept/reject sequence and FNV-1a digests, chained over the regions, of
// the built bits and of the CCE occupancy.
TEST(Pdcch, BuildIsPinned) {
  auto nr_cell = [](CellId id, nr::Scs scs, double mhz, int coreset_rbs) {
    CellConfig c{id, mhz};
    c.rat = Rat::kNr;
    c.scs = scs;
    c.coreset.rbs = coreset_rbs;
    c.pdcch_coding = PdcchCoding::kPolar;
    return c;
  };
  CellConfig conv{4, 20.0};
  conv.pdcch_coding = PdcchCoding::kConvolutional;

  struct Pin {
    CellConfig cell;
    std::uint64_t seed;
    // '1' placed, '0' refused, one per attempt; '|' ends a region.
    const char* accepts;
    std::uint64_t bits_digest;
    std::uint64_t used_digest;
  };
  const Pin pins[] = {
      {CellConfig{1, 5.0}, 11,
       "11101100000011|111100000000|111011010100001|",
       0x03f0a70db96bde7bULL, 0xcdf04bdcbaa31ebbULL},
      {CellConfig{2, 10.0}, 12,
       "1111111110100000000|1111111111110001|111111111110111001101|",
       0xbd6a2f8aa5c8fe4aULL, 0x48a8a5d4a23e44ecULL},
      {CellConfig{3, 20.0}, 13,
       "11111111111111111111111011101001|"
       "111111111111111111111111110001|"
       "111111111111111111111111111111111001|",
       0xe7f055482ff01182ULL, 0x9ece13429ae3c3f1ULL},
      {conv, 14,
       "111111111001111110111|1010110111011111100111|"
       "111111110011111111111011|",
       0xf5a53797d001c27cULL, 0x9ece13429ae3c3f1ULL},
      {nr_cell(5, nr::Scs::k30kHz, 20.0, 48), 15, "110000100100000000|01|1|",
       0xfcf790143f3607d4ULL, 0x73daf79536fe1857ULL},
      {nr_cell(6, nr::Scs::k120kHz, 50.0, 30), 16,
       "1100000000|0101100000000|00100000000|", 0xf08c98561a70422eULL,
       0x9cdcbb461ec1cd35ULL},
  };
  for (const Pin& pin : pins) {
    const bool is_nr = pin.cell.rat == Rat::kNr;
    const DciFormat* formats = is_nr ? kNrDciFormats : kLteDciFormats;
    const auto n_formats = static_cast<std::int64_t>(
        is_nr ? std::size(kNrDciFormats) : std::size(kLteDciFormats));
    const int n_prbs = pin.cell.n_prbs();
    util::Rng rng{pin.seed};
    std::string accepts;
    std::uint64_t bits_digest = util::kFnv1aOffset;
    std::uint64_t used_digest = util::kFnv1aOffset;
    for (std::int64_t region = 0; region < 3; ++region) {
      PdcchBuilder b(pin.cell, region);
      for (int refusals = 0; refusals < 8 && b.cces_free() > 0;) {
        Dci d;
        d.rnti = static_cast<Rnti>(rng.uniform_int(kMinCRnti, kMaxCRnti));
        d.format = formats[rng.uniform_int(0, n_formats - 1)];
        d.prb_start =
            static_cast<std::uint16_t>(rng.uniform_int(0, n_prbs - 1));
        d.n_prbs = static_cast<std::uint16_t>(
            rng.uniform_int(1, n_prbs - d.prb_start));
        d.mcs.cqi = static_cast<int>(rng.uniform_int(1, 15));
        if (format_is_mimo(d.format)) {
          d.mcs.n_streams = static_cast<int>(rng.uniform_int(1, 2));
        }
        d.harq_id =
            static_cast<std::uint8_t>(rng.uniform_int(0, is_nr ? 15 : 7));
        d.new_data = rng.uniform_int(0, 1) == 1;
        const int al = 1 << rng.uniform_int(0, is_nr ? 4 : 3);
        const bool placed = rng.uniform_int(0, 1) == 1
                                ? b.add_escalating(d, al)
                                : b.add(d, al);
        accepts += placed ? '1' : '0';
        refusals = placed ? 0 : refusals + 1;
      }
      accepts += '|';
      const PdcchSubframe sf = std::move(b).build();
      ASSERT_EQ(sf.bits.size(),
                static_cast<std::size_t>(pin.cell.n_cces()) * kBitsPerCce);
      const auto bits = sf.bits.to_bytes();
      std::vector<std::uint8_t> used;  // one byte per CCE, as first pinned
      for (std::size_t c = 0; c < sf.cce_used.size(); ++c) {
        used.push_back(sf.cce_used.bit(c) ? 1 : 0);
      }
      bits_digest = util::fnv1a64(bits.data(), bits.size(), bits_digest);
      used_digest = util::fnv1a64(used.data(), used.size(), used_digest);
    }
    EXPECT_EQ(accepts, pin.accepts) << "cell " << pin.cell.id;
    EXPECT_EQ(bits_digest, pin.bits_digest) << "cell " << pin.cell.id;
    EXPECT_EQ(used_digest, pin.used_digest) << "cell " << pin.cell.id;
  }
}

// aligned_run_leads and aligned_runs_hit against the per-bit rule they
// stand for: a lead at every multiple of `al`, set when any CCE of its run
// is set.
TEST(Pdcch, AlignedRunsMatchPerBitLoop) {
  util::Rng rng{77};
  for (const int al : {1, 2, 4, 8, 16}) {
    std::uint64_t leads = 0;
    for (int k = 0; k < 64; k += al) leads |= (1ULL << 63) >> k;
    EXPECT_EQ(aligned_run_leads(al), leads) << "al " << al;
    for (int trial = 0; trial < 3000; ++trial) {
      std::uint64_t x = rng.next_u64();
      if (trial == 0) x = 0;
      if (trial == 1) x = ~0ULL;
      if (trial % 3 == 2) x &= rng.next_u64() & rng.next_u64();  // sparse
      if (trial % 5 == 4) x = (1ULL << 63) >> rng.uniform_int(0, 63);
      std::uint64_t want = 0;
      for (int k = 0; k < 64; k += al) {
        bool any = false;
        for (int j = k; j < k + al; ++j) any = any || ((x << j) >> 63) != 0;
        if (any) want |= (1ULL << 63) >> k;
      }
      ASSERT_EQ(aligned_runs_hit(x, al), want) << "al " << al << " x " << x;
    }
  }
}

// First fit as it was written before the occupancy map became a word
// mask, kept as the reference: each candidate start in order (every
// aligned start for LTE, the search-space list for NR), its CCEs checked
// one at a time.
int reference_first_fit(const CellConfig& cell, const std::vector<bool>& used,
                        int al) {
  const int n = cell.n_cces();
  std::vector<int> starts;
  if (cell.rat == Rat::kNr) {
    nr::visit_candidate_starts(n, al, cell.search_space.candidates_for(al),
                               [&starts](int s) {
                                 starts.push_back(s);
                                 return false;
                               });
  } else {
    for (int s = 0; s + al <= n; s += al) starts.push_back(s);
  }
  for (const int s : starts) {
    bool free = true;
    for (int c = s; c < s + al; ++c) {
      if (used[static_cast<std::size_t>(c)]) free = false;
    }
    if (free) return s;
  }
  return -1;
}

// add and add_escalating against the per-bit first fit, from an empty map
// to a full one, at every level, on 5/10/20 MHz LTE (21/42/84 CCEs) and on
// 30 kHz (16 and 72 CCEs) and 120 kHz (10 CCEs) NR CORESETs.
TEST(Pdcch, WordFirstFitMatchesPerBitScan) {
  auto nr_cell = [](CellId id, nr::Scs scs, double mhz, int rbs, int symbols) {
    CellConfig c{id, mhz};
    c.rat = Rat::kNr;
    c.scs = scs;
    c.coreset = {rbs, symbols};
    c.pdcch_coding = PdcchCoding::kPolar;
    return c;
  };
  CellConfig wide_nr = nr_cell(6, nr::Scs::k30kHz, 40.0, 144, 3);
  wide_nr.search_space.candidates = {6, 6, 4, 4, 4};
  const CellConfig cells[] = {{1, 5.0},
                              {2, 10.0},
                              {3, 20.0},
                              nr_cell(4, nr::Scs::k30kHz, 20.0, 48, 2),
                              nr_cell(5, nr::Scs::k120kHz, 50.0, 30, 2),
                              wide_nr};
  util::Rng rng{88};
  for (const CellConfig& cell : cells) {
    const bool is_nr = cell.rat == Rat::kNr;
    const DciFormat* formats = is_nr ? kNrDciFormats : kLteDciFormats;
    const auto n_formats = static_cast<std::int64_t>(
        is_nr ? std::size(kNrDciFormats) : std::size(kLteDciFormats));
    const int max_al = is_nr ? 16 : 8;
    const auto n = static_cast<std::size_t>(cell.n_cces());
    for (std::int64_t region = 0; region < 40; ++region) {
      PdcchBuilder b(cell, region);
      std::vector<bool> used(n, false);
      // Every third region first fills from AL1 up, escalating; every
      // region ends after 12 refusals in a row, most with a full map.
      const bool fill_al1 = region % 3 == 0;
      for (int refusals = 0; refusals < 12;) {
        Dci d;
        d.rnti = static_cast<Rnti>(rng.uniform_int(kMinCRnti, kMaxCRnti));
        d.format = formats[rng.uniform_int(0, n_formats - 1)];
        d.n_prbs = 1;
        d.mcs = {5, format_is_mimo(d.format) ? 2 : 1};
        const bool full = std::find(used.begin(), used.end(), false) ==
                          used.end();
        const bool fill = fill_al1 && !full;
        const int al = fill ? 1 : 1 << rng.uniform_int(0, is_nr ? 4 : 3);
        const bool escalate = fill || rng.bernoulli(0.5);
        int want = -1;
        int want_al = 0;
        for (int a = al; a <= (escalate ? max_al : al) && want < 0; a *= 2) {
          if (!format_fits(cell.pdcch_coding, d.format, a)) continue;
          want = reference_first_fit(cell, used, a);
          want_al = a;
        }
        const bool placed = escalate ? b.add_escalating(d, al) : b.add(d, al);
        ASSERT_EQ(placed, want >= 0) << "cell " << cell.id << " region "
                                     << region << " al " << al;
        for (int c = want; placed && c < want + want_al; ++c) {
          used[static_cast<std::size_t>(c)] = true;
        }
        refusals = placed ? 0 : refusals + 1;
        ASSERT_EQ(b.cces_free(),
                  static_cast<int>(std::count(used.begin(), used.end(), false)));
      }
      const PdcchSubframe sf = std::move(b).build();
      ASSERT_EQ(sf.cce_used.size(), n);
      for (std::size_t c = 0; c < n; ++c) {
        ASSERT_EQ(sf.cce_used.bit(c), used[c])
            << "cell " << cell.id << " region " << region << " cce " << c;
      }
    }
  }
}

TEST(Pdcch, NoiseFlipsBitsDeterministically) {
  CellConfig cell{1, 10.0};
  PdcchBuilder b1(cell, 0);
  const PdcchSubframe silent = std::move(b1).build();
  // Nothing is placed, so every CCE is silent: energize them all, as a
  // monitor sensing pure noise would.
  auto sf1 = silent;
  sf1.cce_used = util::BitVec(sf1.cce_used.size(), true);
  auto sf2 = sf1;
  util::Rng r1{5}, r2{5};
  apply_bit_noise(sf1, 0.1, r1);
  apply_bit_noise(sf2, 0.1, r2);
  EXPECT_EQ(sf1.bits, sf2.bits);
  int flips = 0;
  for (std::size_t i = 0; i < sf1.bits.size(); ++i) flips += sf1.bits.bit(i);
  EXPECT_NEAR(flips / static_cast<double>(sf1.bits.size()), 0.1, 0.02);
  // All silent: nothing flips, and the RNG still moves one draw per bit.
  auto quiet = silent;
  util::Rng r3{5};
  apply_bit_noise(quiet, 0.1, r3);
  EXPECT_EQ(quiet, silent);
  EXPECT_EQ(r3.next_u64(), r1.next_u64());
}

// apply_bit_noise against the per-bit loop it stands for: one bernoulli
// draw per bit of the region in bit order, and a flip only where the
// bit's CCE is energized (cce_used[c], or c past the end of cce_used).
TEST(Pdcch, NoiseFlipsOnlyEnergizedCces) {
  util::Rng gen{404};
  const double bers[] = {0.0, 1e-10, 1e-3, 0.04, 0.5, 1.0};
  for (int trial = 0; trial < 48; ++trial) {
    PdcchSubframe sf;
    sf.n_cces =
        trial < 8 ? 1 + trial : static_cast<int>(gen.uniform_int(1, 135));
    const auto n_bits = static_cast<std::size_t>(sf.n_cces) * kBitsPerCce;
    sf.bits = util::BitVec(n_bits);
    for (std::size_t i = 0; i < n_bits; ++i) {
      sf.bits.set_bit(i, gen.bernoulli(0.5));
    }
    // All energized, all silent, random, or a random prefix shorter than
    // the region.
    const int kind = trial % 4;
    sf.cce_used = util::BitVec(
        kind == 3 ? static_cast<std::size_t>(gen.uniform_int(0, sf.n_cces - 1))
                  : static_cast<std::size_t>(sf.n_cces));
    for (std::size_t c = 0; c < sf.cce_used.size(); ++c) {
      sf.cce_used.set_bit(c, kind == 0 || (kind != 1 && gen.bernoulli(0.3)));
    }
    const auto energized = [&sf](std::size_t i) {
      const std::size_t c = i / kBitsPerCce;
      return c >= sf.cce_used.size() || sf.cce_used.bit(c);
    };
    for (const double ber : bers) {
      const std::uint64_t seed = gen.next_u64();
      PdcchSubframe got = sf;
      util::Rng rng{seed};
      apply_bit_noise(got, ber, rng);

      util::BitVec want = sf.bits;
      util::Rng ref{seed};
      for (std::size_t i = 0; ber > 0.0 && i < n_bits; ++i) {
        if (ref.bernoulli(ber) && energized(i)) want.flip_bit(i);
      }
      for (std::size_t i = 0; i < n_bits; ++i) {
        ASSERT_EQ(got.bits.bit(i), energized(i) ? want.bit(i) : sf.bits.bit(i))
            << "trial " << trial << " ber " << ber << " bit " << i;
      }
      ASSERT_EQ(rng.next_u64(), ref.next_u64())
          << "trial " << trial << " ber " << ber;
      ASSERT_EQ(got.cce_used, sf.cce_used);
    }
  }
}

// The silent-run skip against the per-bit loop: every placement of one or
// two energized islands of one to three CCEs (each CCE crosses a word
// boundary), in regions whose last word is partial or whole, with the map
// as long as the region or cut short (the rest energized). A skip that
// discards one word too many leaves the next island's first bits
// unflipped.
TEST(Pdcch, NoiseSkipsSilentRunsLikePerBitLoop) {
  util::Rng gen{505};
  for (const int n_cces : {1, 2, 3, 7, 8, 9, 16, 17, 63, 64, 65, 90}) {
    const auto n_bits = static_cast<std::size_t>(n_cces) * kBitsPerCce;
    PdcchSubframe base;
    base.n_cces = n_cces;
    base.bits = util::BitVec(n_bits);
    for (std::size_t i = 0; i < n_bits; ++i) {
      base.bits.set_bit(i, gen.bernoulli(0.5));
    }
    for (int p = 0; p < n_cces; ++p) {
      for (const int width : {1, 3}) {
        PdcchSubframe sf = base;
        // Mode 0: one island; 1: two islands; 2: one island on a map cut
        // short after it, so everything past the cut is energized too.
        const int mode = (p + width) % 3;
        const int second = static_cast<int>(gen.uniform_int(0, n_cces - 1));
        const auto map_len = static_cast<std::size_t>(
            mode == 2 ? std::min(n_cces, p + width + 2) : n_cces);
        sf.cce_used = util::BitVec(map_len);
        for (std::size_t c = 0; c < map_len; ++c) {
          const auto ci = static_cast<int>(c);
          const bool island = ci >= p && ci < p + width;
          sf.cce_used.set_bit(c, island || (mode == 1 && ci == second));
        }
        const auto energized = [&sf](std::size_t i) {
          const std::size_t c = i / kBitsPerCce;
          return c >= sf.cce_used.size() || sf.cce_used.bit(c);
        };
        for (const double ber : {1e-3, 0.5}) {
          const std::uint64_t seed = gen.next_u64();
          PdcchSubframe got = sf;
          util::Rng rng{seed};
          apply_bit_noise(got, ber, rng);
          util::BitVec want = sf.bits;
          util::Rng ref{seed};
          for (std::size_t i = 0; i < n_bits; ++i) {
            if (ref.bernoulli(ber) && energized(i)) want.flip_bit(i);
          }
          ASSERT_EQ(got.bits, want)
              << "n_cces " << n_cces << " p " << p << " width " << width
              << " mode " << mode << " ber " << ber;
          ASSERT_EQ(rng.next_u64(), ref.next_u64())
              << "n_cces " << n_cces << " p " << p << " width " << width;
        }
      }
    }
  }
}

// The monitor-side noise stream: exactly one bernoulli draw per bit, in bit
// order. Pinned to the values the per-bit flip loop produced; a noise
// model that changes the stream (e.g. geometric-gap sampling) moves every
// determinism digest and must re-pin this table on purpose. Silent CCEs
// keep their bits but not their draws, so `next` does not depend on which
// CCEs are energized.
TEST(Pdcch, NoiseStreamIsPinned) {
  CellConfig lte{1, 20.0};
  PdcchBuilder b(lte, 0);
  for (int i = 0; i < 4; ++i) {
    Dci d;
    d.rnti = static_cast<Rnti>(0x200 + i);
    d.format = DciFormat::kFormat1A;
    d.prb_start = static_cast<std::uint16_t>(10 * i);
    d.n_prbs = 8;
    d.mcs = {7 + i, 1};
    ASSERT_TRUE(b.add(d, 1 << i));
  }
  const PdcchSubframe lte_sf = std::move(b).build();  // CCEs 0 and 2-15
  ASSERT_EQ(lte_sf.bits.size(), 6048u);
  PdcchSubframe lte_all = lte_sf;  // the same bits, every CCE energized
  lte_all.cce_used = util::BitVec(lte_all.cce_used.size(), true);
  PdcchSubframe nr_sf;  // one NR AL16 candidate's worth of bits
  nr_sf.n_cces = 16;
  nr_sf.bits = util::BitVec(16 * kBitsPerCce);

  struct Pin {
    const PdcchSubframe* region;
    double ber;
    std::uint64_t seed;
    std::uint64_t digest;  // FNV-1a of the noisy region's bytes
    std::uint64_t next;    // the rng's next draw after the call
  };
  const Pin pins[] = {
      {&lte_sf, 1e-3, 101, 0x9daec226d985143dULL, 0xedb2a16b811b8d47ULL},
      {&lte_sf, 0.04, 102, 0xf5f150d9778efb98ULL, 0x99f387d0732b0317ULL},
      {&lte_sf, 0.5, 103, 0xdea2050a20aa75c2ULL, 0x5dd776321f3feec0ULL},
      {&lte_all, 1e-3, 101, 0xbd52016f25739719ULL, 0xedb2a16b811b8d47ULL},
      {&lte_all, 0.04, 102, 0x80478978afdae092ULL, 0x99f387d0732b0317ULL},
      {&lte_all, 0.5, 103, 0x2596e2ea6b9c4871ULL, 0x5dd776321f3feec0ULL},
      {&nr_sf, 1e-3, 104, 0xec32669a74fcae65ULL, 0x72503e72f1a3b393ULL},
      {&nr_sf, 0.04, 105, 0x67a187cc99200317ULL, 0x0cb79002cafa29c3ULL},
      {&nr_sf, 0.5, 106, 0x02cea5696f7ad596ULL, 0x1b7e2f33b9a26c25ULL},
  };
  for (const Pin& pin : pins) {
    PdcchSubframe sf = *pin.region;
    util::Rng rng{pin.seed};
    apply_bit_noise(sf, pin.ber, rng);
    const auto bytes = sf.bits.to_bytes();
    EXPECT_EQ(util::fnv1a64(bytes.data(), bytes.size()), pin.digest)
        << "seed " << pin.seed;
    EXPECT_EQ(rng.next_u64(), pin.next) << "seed " << pin.seed;
  }
}

// --------------------------------------------------------------- channel

TEST(Channel, MobilityTraceInterpolation) {
  MobilityTrace t({{0, -85}, {1000, -105}});
  EXPECT_DOUBLE_EQ(t.rssi_at(-5), -85);
  EXPECT_DOUBLE_EQ(t.rssi_at(0), -85);
  EXPECT_DOUBLE_EQ(t.rssi_at(500), -95);
  EXPECT_DOUBLE_EQ(t.rssi_at(1000), -105);
  EXPECT_DOUBLE_EQ(t.rssi_at(99999), -105);
}

TEST(Channel, TraceValidation) {
  EXPECT_THROW(MobilityTrace({}), std::invalid_argument);
  EXPECT_THROW(MobilityTrace({{10, -80}, {5, -90}}), std::invalid_argument);
}

TEST(Channel, StationarySampleBounded) {
  ChannelConfig cfg;
  cfg.trace = MobilityTrace::stationary(-92);
  cfg.seed = 3;
  ChannelModel m{cfg};
  for (util::Time t = 0; t < 2 * util::kSecond; t += util::kSubframe) {
    const auto s = m.sample(t);
    EXPECT_NEAR(s.rssi_dbm, -92, 8.0);
    EXPECT_GE(s.cqi, 1);
    EXPECT_LE(s.cqi, 15);
    EXPECT_GT(s.data_ber, 0);
    EXPECT_GE(s.control_ber, 0);
  }
}

TEST(Channel, MobilityDegradesCqi) {
  ChannelConfig cfg;
  cfg.trace = MobilityTrace({{0, -85}, {util::kSecond, -110}});
  cfg.seed = 9;
  ChannelModel m{cfg};
  const auto strong = m.sample(0);
  const auto weak = m.sample(util::kSecond);
  EXPECT_GT(strong.cqi, weak.cqi);
  EXPECT_LT(strong.data_ber, weak.data_ber);
}

TEST(Channel, Deterministic) {
  ChannelConfig cfg;
  cfg.seed = 77;
  ChannelModel a{cfg}, b{cfg};
  for (util::Time t = 0; t < 200 * util::kMillisecond; t += util::kSubframe) {
    EXPECT_DOUBLE_EQ(a.sample(t).sinr_db, b.sample(t).sinr_db);
  }
}

// --------------------------------------------------------- transport block

TEST(TransportBlock, Sizing) {
  const Mcs mcs{10, 1};
  EXPECT_DOUBLE_EQ(transport_block_bits(10, mcs), 10 * mcs.bits_per_prb());
  EXPECT_DOUBLE_EQ(transport_block_bits(0, mcs), 0.0);
  EXPECT_THROW(transport_block_bits(-1, mcs), std::invalid_argument);
}

}  // namespace
}  // namespace pbecc::phy
