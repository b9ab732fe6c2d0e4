// Unit tests for src/nr and the NR-aware paths threaded through the
// pipeline: scalable numerology, CORESET/search-space candidate
// enumeration (per SCS, encode and decode side), polar-coded (stand-in)
// blind decoding, heterogeneous-clock message fusion, the mixed LTE+NR
// scenario axis, and the .pbt v1/v2 compatibility contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "cap/replay.h"
#include "cap/taps.h"
#include "cap/trace_reader.h"
#include "cap/trace_writer.h"
#include "decoder/blind_decoder.h"
#include "decoder/message_fusion.h"
#include "nr/coreset.h"
#include "nr/numerology.h"
#include "phy/convolutional.h"
#include "phy/pdcch.h"
#include "sim/location.h"
#include "util/rng.h"

namespace pbecc {
namespace {

// ------------------------------------------------------------- numerology

TEST(Numerology, SlotClockScalesByPowerOfTwo) {
  EXPECT_EQ(nr::scs_khz(nr::Scs::k15kHz), 15);
  EXPECT_EQ(nr::scs_khz(nr::Scs::k30kHz), 30);
  EXPECT_EQ(nr::scs_khz(nr::Scs::k120kHz), 120);
  EXPECT_EQ(nr::slots_per_subframe(nr::Scs::k15kHz), 1);
  EXPECT_EQ(nr::slots_per_subframe(nr::Scs::k30kHz), 2);
  EXPECT_EQ(nr::slots_per_subframe(nr::Scs::k120kHz), 8);
  EXPECT_EQ(nr::slot_duration(nr::Scs::k15kHz), 1000 * util::kMicrosecond);
  EXPECT_EQ(nr::slot_duration(nr::Scs::k30kHz), 500 * util::kMicrosecond);
  EXPECT_EQ(nr::slot_duration(nr::Scs::k120kHz), 125 * util::kMicrosecond);
}

TEST(Numerology, ScsFromKhz) {
  EXPECT_EQ(nr::scs_from_khz(15), nr::Scs::k15kHz);
  EXPECT_EQ(nr::scs_from_khz(30), nr::Scs::k30kHz);
  EXPECT_EQ(nr::scs_from_khz(120), nr::Scs::k120kHz);
  EXPECT_TRUE(nr::valid_scs_khz(30));
  EXPECT_FALSE(nr::valid_scs_khz(60));  // mu 2 not modeled
  EXPECT_THROW(nr::scs_from_khz(60), std::invalid_argument);
}

TEST(Numerology, PrbTablesMatch38101) {
  // 38.101-1 Table 5.3.2-1 (FR1) and 38.101-2 (FR2) spot checks.
  EXPECT_EQ(nr::nr_prbs_for(nr::Scs::k15kHz, 10.0), 52);
  EXPECT_EQ(nr::nr_prbs_for(nr::Scs::k15kHz, 50.0), 270);
  EXPECT_EQ(nr::nr_prbs_for(nr::Scs::k30kHz, 20.0), 51);
  EXPECT_EQ(nr::nr_prbs_for(nr::Scs::k30kHz, 100.0), 273);
  EXPECT_EQ(nr::nr_prbs_for(nr::Scs::k120kHz, 50.0), 32);
  EXPECT_EQ(nr::nr_prbs_for(nr::Scs::k120kHz, 400.0), 264);
  EXPECT_THROW(nr::nr_prbs_for(nr::Scs::k120kHz, 10.0),
               std::invalid_argument);
}

TEST(Numerology, CellConfigTick) {
  phy::CellConfig lte{1, 10.0};
  EXPECT_EQ(lte.tick(), util::kSubframe);
  EXPECT_EQ(lte.slots_per_subframe(), 1);

  phy::CellConfig c{2, 50.0};
  c.rat = phy::Rat::kNr;
  c.scs = nr::Scs::k120kHz;
  EXPECT_EQ(c.slots_per_subframe(), 8);
  EXPECT_EQ(c.tick(), util::kSubframe / 8);
  EXPECT_EQ(c.n_prbs(), 32);
  EXPECT_EQ(c.n_cces(), c.coreset.n_cces());
}

// ------------------------------------------------ CORESET candidate starts

TEST(Coreset, CandidateStartsAreAlignedMonotoneAndInPool) {
  for (const int n_cces : {6, 8, 10, 16, 24, 32}) {
    for (const int al : nr::kNrAggregationLevels) {
      for (const int m : {1, 2, 4, 8}) {
        const auto starts = nr::candidate_starts(n_cces, al, m);
        EXPECT_LE(static_cast<int>(starts.size()), m);
        int prev = -1;
        for (const int s : starts) {
          EXPECT_EQ(s % al, 0) << "n_cces=" << n_cces << " al=" << al;
          EXPECT_LE(s + al, n_cces);
          EXPECT_GT(s, prev);  // strictly increasing => deduped
          prev = s;
        }
      }
    }
  }
}

TEST(Coreset, CandidateStarts38213SpotChecks) {
  // 38.213 §10.1 hashing, Y_p = 0: start(m) = L*floor(m*N_cce/(L*M_L)).
  using V = std::vector<int>;
  EXPECT_EQ(nr::candidate_starts(16, 1, 4), (V{0, 4, 8, 12}));
  EXPECT_EQ(nr::candidate_starts(16, 2, 4), (V{0, 4, 8, 12}));
  EXPECT_EQ(nr::candidate_starts(16, 4, 2), (V{0, 8}));
  EXPECT_EQ(nr::candidate_starts(16, 8, 2), (V{0, 8}));
  EXPECT_EQ(nr::candidate_starts(16, 16, 1), (V{0}));
  // AL wider than the pool: no candidates.
  EXPECT_TRUE(nr::candidate_starts(8, 16, 1).empty());
  // More candidates than slots: duplicates collapse.
  EXPECT_EQ(nr::candidate_starts(8, 4, 4), (V{0, 4}));
}

// The default 48x2 CORESET (16 CCEs) and the per-SCS scenario CORESETs:
// candidate enumeration is what the decoder blindly walks, so its size is
// the decoder's per-tick work budget.
TEST(Coreset, DefaultSearchSpaceCandidateCount) {
  const nr::CoresetConfig coreset;  // 48 RBs x 2 symbols
  ASSERT_EQ(coreset.n_cces(), 16);
  const nr::SearchSpaceConfig ss;
  int total = 0;
  for (int i = 0; i < nr::kNumNrAggregationLevels; ++i) {
    const int al = nr::kNrAggregationLevels[i];
    total += static_cast<int>(
        nr::candidate_starts(coreset.n_cces(), al, ss.candidates_for(al))
            .size());
  }
  // {4,4,2,2,1} candidates at ALs {1,2,4,8,16} in 16 CCEs: 4+4+2+2+1.
  EXPECT_EQ(total, 13);
}

// -------------------------------------- NR PDCCH builder->decoder, per SCS

phy::Dci nr_dci(phy::Rnti rnti, int n_prbs,
                phy::DciFormat fmt = phy::DciFormat::kNrFormat1_0) {
  phy::Dci d;
  d.rnti = rnti;
  d.format = fmt;
  d.n_prbs = static_cast<std::uint16_t>(n_prbs);
  d.mcs = {10, phy::format_is_mimo(fmt) ? 2 : 1};
  return d;
}

phy::CellConfig nr_cell_for(nr::Scs scs) {
  // The scenario_config_for carriers: a 38.101 bandwidth per SCS with a
  // CORESET that fits it.
  phy::CellConfig c{7, scs == nr::Scs::k15kHz   ? 10.0
                       : scs == nr::Scs::k30kHz ? 20.0
                                                : 50.0};
  c.rat = phy::Rat::kNr;
  c.scs = scs;
  c.coreset.rbs = scs == nr::Scs::k120kHz ? 30 : 48;
  c.coreset.symbols = 2;
  c.pdcch_coding = phy::PdcchCoding::kPolar;
  return c;
}

// Polar-coded feasibility rule (the convolutional stand-in's): a format
// fits an AL-`al` candidate iff the region keeps real redundancy after
// rate matching.
bool polar_fits(phy::DciFormat fmt, int al) {
  const std::size_t msg_bits =
      static_cast<std::size_t>(phy::dci_payload_bits(fmt)) + 16;
  return static_cast<std::size_t>(al * phy::kBitsPerCce) >=
         phy::conv_min_region_bits(msg_bits);
}

TEST(NrPdcch, BuilderDecoderRoundTripPerScs) {
  for (const auto scs :
       {nr::Scs::k15kHz, nr::Scs::k30kHz, nr::Scs::k120kHz}) {
    const auto cell = nr_cell_for(scs);
    for (const int al : {1, 2, 4, 8, 16}) {
      phy::PdcchBuilder b(cell, 3);
      const bool has_candidate =
          !nr::candidate_starts(cell.n_cces(), al,
                                cell.search_space.candidates_for(al))
               .empty();
      if (!polar_fits(phy::DciFormat::kNrFormat1_0, al) || !has_candidate) {
        // Either one CCE cannot keep rate-matched redundancy for a 61-bit
        // message, or the AL is wider than the CORESET's CCE pool (AL16 in
        // the 120 kHz cell's 10 CCEs): the builder must refuse rather than
        // emit a candidate the decoder would never walk.
        EXPECT_FALSE(b.add(nr_dci(0x210, 12), al))
            << "scs=" << nr::scs_khz(scs) << " al=" << al;
        continue;
      }
      ASSERT_TRUE(b.add(nr_dci(0x210, 12), al))
          << "scs=" << nr::scs_khz(scs) << " al=" << al;
      const auto sf = std::move(b).build();
      EXPECT_EQ(sf.tick, nr::slot_duration(scs));
      decoder::BlindDecoder dec{cell};
      const auto msgs = dec.decode(sf);
      ASSERT_EQ(msgs.size(), 1u)
          << "scs=" << nr::scs_khz(scs) << " al=" << al;
      EXPECT_EQ(msgs[0].rnti, 0x210);
      EXPECT_EQ(msgs[0].n_prbs, 12);
      EXPECT_EQ(msgs[0].format, phy::DciFormat::kNrFormat1_0);
    }
  }
}

TEST(NrPdcch, DecoderWalksExactlyTheSearchSpaceCandidates) {
  // An empty but fully-energized CORESET forces the decoder to try every
  // candidate: the per-AL attempt counters must equal the candidate list
  // sizes times the NR format count — the decoder walks the configured
  // search space, not every aligned start the way LTE does.
  for (const auto scs :
       {nr::Scs::k15kHz, nr::Scs::k30kHz, nr::Scs::k120kHz}) {
    const auto cell = nr_cell_for(scs);
    phy::PdcchBuilder b(cell, 0);
    auto sf = std::move(b).build();
    std::fill(sf.cce_used.begin(), sf.cce_used.end(), true);
    decoder::BlindDecoder dec{cell};
    dec.decode(sf);
    const auto& st = dec.stats();
    for (int i = 0; i < nr::kNumNrAggregationLevels; ++i) {
      const int al = nr::kNrAggregationLevels[i];
      const auto starts = nr::candidate_starts(
          cell.n_cces(), al, cell.search_space.candidates_for(al));
      std::size_t feasible_formats = 0;
      for (const auto fmt : phy::kNrDciFormats) {
        if (polar_fits(fmt, al)) ++feasible_formats;
      }
      EXPECT_EQ(st.candidates_by_al[static_cast<std::size_t>(
                    decoder::al_index(al))],
                starts.size() * feasible_formats)
          << "scs=" << nr::scs_khz(scs) << " al=" << al;
    }
  }
}

TEST(NrPdcch, Al16IsNrOnly) {
  // AL16 candidates exist only in NR search spaces; the LTE builder
  // rejects the level outright.
  phy::CellConfig lte{1, 20.0};
  phy::PdcchBuilder lb(lte, 0);
  EXPECT_THROW(lb.add(nr_dci(0x111, 8, phy::DciFormat::kFormat1), 16),
               std::invalid_argument);

  const auto cell = nr_cell_for(nr::Scs::k30kHz);
  phy::PdcchBuilder nb(cell, 0);
  ASSERT_TRUE(nb.add(nr_dci(0x111, 8), 16));
  const auto sf = std::move(nb).build();
  decoder::BlindDecoder dec{cell};
  const auto msgs = dec.decode(sf);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].rnti, 0x111);
}

// ------------------------------------------- heterogeneous-clock fusion

TEST(MixedFusion, LteAndNrClocksInterleave) {
  std::vector<decoder::FusedSubframe> out;
  decoder::MessageFusion fusion(
      [&](const decoder::FusedSubframe& f) { out.push_back(f); });
  fusion.register_cell(1, util::kSubframe);      // LTE
  fusion.register_cell(2, util::kSubframe / 2);  // NR 30 kHz

  // Master subframe 10: the LTE cell ticks once at t=10ms; the NR cell
  // ticks at t=10ms (slot 20) and t=10.5ms (slot 21).
  fusion.on_decoded(1, 10, {});
  EXPECT_TRUE(out.empty());  // t=10ms still waiting on the NR cell
  fusion.on_decoded(2, 20, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].time, 10 * util::kSubframe);
  ASSERT_EQ(out[0].cells.size(), 2u);  // both cells due on the ms boundary
  fusion.on_decoded(2, 21, {});
  ASSERT_EQ(out.size(), 2u);  // NR-only instant needs no LTE report
  EXPECT_EQ(out[1].time, 10 * util::kSubframe + util::kSubframe / 2);
  ASSERT_EQ(out[1].cells.size(), 1u);
  EXPECT_EQ(out[1].cells[0].cell, 2u);
  EXPECT_EQ(out[1].cells[0].sf_index, 21);
}

// --------------------------------------------- mixed LTE+NR scenario axis

TEST(NrScenario, MixedCarrierRunTracksBothRats) {
  auto loc = sim::location(12);  // 2-cell busy
  loc.seed = 99;
  loc.nr_numerology = 1;  // 30 kHz secondaries
  const auto r = sim::run_location(loc, "pbe", 2 * util::kSecond);
  EXPECT_GT(r.avg_tput_mbps, 1.0);
  EXPECT_GT(r.decode_candidates, 0u);
}

TEST(NrScenario, ScenarioConfigBuildsNrSecondaries) {
  auto loc = sim::location(30);  // 3-cell
  loc.nr_numerology = 3;
  const auto cfg = sim::scenario_config_for(loc);
  ASSERT_EQ(cfg.cells.size(), 3u);
  EXPECT_FALSE(cfg.cells[0].nr);  // primary always stays LTE
  EXPECT_TRUE(cfg.cells[1].nr);
  EXPECT_EQ(cfg.cells[1].scs_khz, 120);
  EXPECT_TRUE(cfg.cells[2].nr);
  EXPECT_TRUE(cfg.cells[2].mini_slot);

  const auto ue = sim::ue_spec_for(loc);
  ASSERT_GE(ue.serving_sets.size(), 2u);  // LTE<->NR handover sets
  EXPECT_EQ(ue.serving_sets[0], (std::vector<std::size_t>{0}));
}

// ----------------------------------------------- .pbt v1/v2 compatibility

// Record the same LTE run with the v1 (pre-NR) and v2 writers: both files
// must replay to the digest of the live run — the version bump cannot
// perturb LTE replays.
TEST(CapCompat, V1LteTraceReplaysByteIdentical) {
  const std::string v1_path = ::testing::TempDir() + "nr_compat_v1.pbt";
  const std::string v2_path = ::testing::TempDir() + "nr_compat_v2.pbt";

  auto loc = sim::location(3);
  loc.seed = 1234;
  cap::PipelineDigest live[2];
  const std::string paths[2] = {v1_path, v2_path};
  for (int v = 1; v <= 2; ++v) {
    cap::TraceWriter writer(paths[v - 1], 256,
                            static_cast<std::uint16_t>(v));
    sim::CaptureOptions capture;
    capture.writer = &writer;
    capture.digest = &live[v - 1];
    sim::run_location(loc, "pbe", 2 * util::kSecond, nullptr, 1, capture);
    ASSERT_TRUE(writer.close()) << writer.error();
    EXPECT_EQ(writer.version(), v);
  }
  // Same seed, same scenario: the live tap stream does not depend on the
  // writer version.
  EXPECT_TRUE(live[0] == live[1]);
  EXPECT_GT(live[0].observations(), 0u);

  for (int v = 1; v <= 2; ++v) {
    cap::TraceReader reader(paths[v - 1]);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.version(), v);
    cap::PipelineDigest replayed;
    cap::ReplayDriver driver(reader.header(), &replayed);
    driver.run(reader);
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_TRUE(live[v - 1] == replayed) << "version " << v;
  }
  std::remove(v1_path.c_str());
  std::remove(v2_path.c_str());
}

TEST(CapCompat, V1WriterRejectsNrConfigurations) {
  const std::string path = ::testing::TempDir() + "nr_compat_reject.pbt";
  cap::TraceWriter writer(path, 256, 1);
  cap::TraceHeader h;
  h.cells.push_back(nr_cell_for(nr::Scs::k30kHz));
  writer.begin(h);
  EXPECT_FALSE(writer.ok());
  std::remove(path.c_str());
}

// NR record -> replay: the tentpole fidelity check. A mixed-carrier
// capture at 120 kHz must replay to the identical pipeline digest.
TEST(CapCompat, NrRecordingReplaysByteIdentical) {
  const std::string path = ::testing::TempDir() + "nr_replay.pbt";
  auto loc = sim::location(12);
  loc.seed = 77;
  loc.nr_numerology = 3;
  cap::TraceWriter writer(path);
  cap::PipelineDigest live;
  sim::CaptureOptions capture;
  capture.writer = &writer;
  capture.digest = &live;
  sim::run_location(loc, "pbe", 2 * util::kSecond, nullptr, 1, capture);
  ASSERT_TRUE(writer.close()) << writer.error();
  EXPECT_GT(live.observations(), 0u);

  cap::TraceReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.version(), cap::kFormatVersion);
  cap::PipelineDigest replayed;
  cap::ReplayDriver driver(reader.header(), &replayed);
  driver.run(reader);
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_TRUE(live == replayed);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pbecc
