// Unit tests for src/decoder: blind decoding, message fusion, user
// tracking, and the assembled monitor pipeline.
#include <gtest/gtest.h>

#include <vector>

#include "decoder/blind_decoder.h"
#include "decoder/message_fusion.h"
#include "decoder/monitor.h"
#include "decoder/user_tracker.h"
#include "nr/numerology.h"
#include "phy/pdcch.h"
#include "util/rng.h"

namespace pbecc::decoder {
namespace {

phy::Dci make_dci(phy::Rnti rnti, int n_prbs, int prb_start = 0,
                  phy::DciFormat fmt = phy::DciFormat::kFormat1, int cqi = 10) {
  phy::Dci d;
  d.rnti = rnti;
  d.format = fmt;
  d.prb_start = static_cast<std::uint16_t>(prb_start);
  d.n_prbs = static_cast<std::uint16_t>(n_prbs);
  d.mcs = {cqi, phy::format_is_mimo(fmt) ? 2 : 1};
  return d;
}

// ---------------------------------------------------------- blind decoder

TEST(BlindDecoder, DecodesCleanSubframe) {
  phy::CellConfig cell{1, 20.0};
  phy::PdcchBuilder b(cell, 3);
  ASSERT_TRUE(b.add(make_dci(0x100, 30, 0), 1));
  ASSERT_TRUE(b.add(make_dci(0x200, 20, 30, phy::DciFormat::kFormat2), 2));
  ASSERT_TRUE(b.add(make_dci(0x300, 4, 50, phy::DciFormat::kFormat1A, 3), 4));
  const auto sf = std::move(b).build();

  BlindDecoder dec{cell};
  const auto msgs = dec.decode(sf);
  ASSERT_EQ(msgs.size(), 3u);
  int prbs_by_rnti[4] = {};
  for (const auto& m : msgs) {
    if (m.rnti == 0x100) prbs_by_rnti[1] = m.n_prbs;
    if (m.rnti == 0x200) prbs_by_rnti[2] = m.n_prbs;
    if (m.rnti == 0x300) prbs_by_rnti[3] = m.n_prbs;
  }
  EXPECT_EQ(prbs_by_rnti[1], 30);
  EXPECT_EQ(prbs_by_rnti[2], 20);
  EXPECT_EQ(prbs_by_rnti[3], 4);
  EXPECT_EQ(dec.stats().messages_decoded, 3u);
}

TEST(BlindDecoder, NoMessagesNoDecodes) {
  phy::CellConfig cell{1, 10.0};
  phy::PdcchBuilder b(cell, 0);
  const auto sf = std::move(b).build();
  BlindDecoder dec{cell};
  EXPECT_TRUE(dec.decode(sf).empty());
}

TEST(BlindDecoder, NoDuplicatesFromNestedCandidates) {
  // A message at AL4 is self-similar at the nested AL2/AL1 candidates;
  // the claimed-CCE rule must report it exactly once.
  phy::CellConfig cell{1, 10.0};
  phy::PdcchBuilder b(cell, 0);
  ASSERT_TRUE(b.add(make_dci(0x150, 10), 4));
  const auto sf = std::move(b).build();
  BlindDecoder dec{cell};
  const auto msgs = dec.decode(sf);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].rnti, 0x150);
}

TEST(BlindDecoder, HighAggregationSurvivesNoise) {
  phy::CellConfig cell{1, 20.0};
  util::Rng rng{5};
  int decoded_al8 = 0, decoded_al1 = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    for (int al : {1, 8}) {
      phy::PdcchBuilder b(cell, t);
      ASSERT_TRUE(b.add(make_dci(0x100, 30), al));
      auto sf = std::move(b).build();
      phy::apply_bit_noise(sf, 0.04, rng);
      BlindDecoder dec{cell};
      const auto msgs = dec.decode(sf);
      const bool ok = msgs.size() == 1 && msgs[0].rnti == 0x100 &&
                      msgs[0].n_prbs == 30;
      (al == 8 ? decoded_al8 : decoded_al1) += ok ? 1 : 0;
    }
  }
  // 4% BER: a single 66-bit copy usually breaks, 8 repetitions majority-
  // vote it back out.
  EXPECT_GT(decoded_al8, decoded_al1);
  EXPECT_GT(decoded_al8, trials / 2);
}

TEST(BlindDecoder, NoFalsePositivesOnNoise) {
  // Pure-noise regions marked "energized" must (essentially) never decode.
  phy::CellConfig cell{1, 20.0};
  util::Rng rng{7};
  BlindDecoder dec{cell};
  int phantom = 0;
  for (int t = 0; t < 200; ++t) {
    phy::PdcchBuilder b(cell, t);
    auto sf = std::move(b).build();
    std::fill(sf.cce_used.begin(), sf.cce_used.end(), true);
    phy::apply_bit_noise(sf, 0.5, rng);  // random bits
    phantom += static_cast<int>(dec.decode(sf).size());
  }
  EXPECT_LE(phantom, 1);
}

TEST(BlindDecoder, WrongFormatNeverWins) {
  // Exhaustive: place every format of each RAT at every AL it fits and
  // verify the decode returns exactly the placed message with its own
  // format.
  phy::CellConfig cell{1, 20.0};
  for (const auto fmt : phy::kLteDciFormats) {
    for (int al : {1, 2, 4, 8}) {
      phy::PdcchBuilder b(cell, 0);
      auto d = make_dci(0x123, fmt == phy::DciFormat::kFormat0 ? 4 : 25, 0,
                        fmt);
      ASSERT_TRUE(b.add(d, al));
      const auto sf = std::move(b).build();
      BlindDecoder dec{cell};
      const auto msgs = dec.decode(sf);
      ASSERT_EQ(msgs.size(), 1u) << "format " << static_cast<int>(fmt)
                                 << " AL " << al;
      EXPECT_EQ(msgs[0].format, fmt);
      EXPECT_EQ(msgs[0].rnti, 0x123);
    }
  }
  phy::CellConfig nr_cell{2, 20.0};
  nr_cell.rat = phy::Rat::kNr;
  nr_cell.scs = nr::Scs::k30kHz;
  for (const auto fmt : phy::kNrDciFormats) {
    for (int al : {1, 2, 4, 8, 16}) {
      phy::PdcchBuilder b(nr_cell, 0);
      auto d = make_dci(0x123,
                        fmt == phy::DciFormat::kNrFormat0_0 ? 4 : 25, 0, fmt);
      ASSERT_TRUE(b.add(d, al));
      const auto sf = std::move(b).build();
      BlindDecoder dec{nr_cell};
      const auto msgs = dec.decode(sf);
      ASSERT_EQ(msgs.size(), 1u) << "format " << static_cast<int>(fmt)
                                 << " AL " << al;
      EXPECT_EQ(msgs[0].format, fmt);
      EXPECT_EQ(msgs[0].rnti, 0x123);
    }
  }
}

// The per-bit repetition vote and agreement check that majority_decode and
// region_agrees replaced, kept as oracles.
util::BitVec majority_reference(const phy::PdcchSubframe& sf, int first_cce,
                                int n_cces, int msg_bits) {
  const int reps = phy::repetitions_that_fit(msg_bits, n_cces);
  util::BitVec out(static_cast<std::size_t>(msg_bits));
  const auto base = static_cast<std::size_t>(first_cce) * phy::kBitsPerCce;
  for (int b = 0; b < msg_bits; ++b) {
    int votes = 0;
    for (int r = 0; r < reps; ++r) {
      const auto idx = base + static_cast<std::size_t>(r) * msg_bits + b;
      votes += sf.bits.bit(idx) ? 1 : -1;
    }
    out.set_bit(static_cast<std::size_t>(b), votes > 0);
  }
  return out;
}

bool region_agrees_reference(const phy::PdcchSubframe& sf, int first_cce,
                             int n_cces, const util::BitVec& msg) {
  const int reps =
      phy::repetitions_that_fit(static_cast<int>(msg.size()), n_cces);
  const auto base = static_cast<std::size_t>(first_cce) * phy::kBitsPerCce;
  std::size_t matches = 0;
  const auto rep_bits = static_cast<std::size_t>(reps) * msg.size();
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < msg.size(); ++i) {
      const auto idx = base + static_cast<std::size_t>(r) * msg.size() + i;
      matches += sf.bits.bit(idx) == msg.bit(i) ? 1 : 0;
    }
  }
  if (static_cast<double>(matches) < 0.93 * static_cast<double>(rep_bits)) {
    return false;
  }
  const auto region_bits = static_cast<std::size_t>(n_cces) * phy::kBitsPerCce;
  std::size_t filler_zeros = 0;
  for (std::size_t i = rep_bits; i < region_bits; ++i) {
    filler_zeros += sf.bits.bit(base + i) ? 0 : 1;
  }
  const auto filler_total = region_bits - rep_bits;
  return filler_total == 0 ||
         static_cast<double>(filler_zeros) >=
             0.9 * static_cast<double>(filler_total);
}

TEST(RepetitionVote, MatchesPerBitLoopsForEveryFormatAndLevel) {
  struct Case {
    phy::DciFormat format;
    int al;
  };
  std::vector<Case> cases;
  for (const auto f : phy::kLteDciFormats) {
    for (int al : {1, 2, 4, 8}) cases.push_back({f, al});
  }
  for (const auto f : phy::kNrDciFormats) {
    for (int al : {1, 2, 4, 8, 16}) cases.push_back({f, al});
  }
  util::Rng rng{33};
  util::BitVec vote;
  int agreeing = 0;
  for (const Case& c : cases) {
    const int msg_bits = phy::dci_payload_bits(c.format) + 16;
    const int reps = phy::repetitions_that_fit(msg_bits, c.al);
    for (double ber : {0.0, 0.04, 0.5}) {
      for (int trial = 0; trial < 12; ++trial) {
        // Two candidates' worth of region, the message repeated into the
        // second one (so candidate offsets cross word boundaries), then
        // channel noise; BER 0.5 is a random region.
        phy::PdcchSubframe sf;
        sf.n_cces = 2 * c.al;
        sf.bits = util::BitVec(static_cast<std::size_t>(sf.n_cces) *
                               phy::kBitsPerCce);
        util::BitVec msg;
        for (int i = 0; i < msg_bits; ++i) msg.push_bit(rng.bernoulli(0.5));
        const auto base = static_cast<std::size_t>(c.al) * phy::kBitsPerCce;
        for (int r = 0; r < reps; ++r) {
          for (int i = 0; i < msg_bits; ++i) {
            sf.bits.set_bit(base + static_cast<std::size_t>(r * msg_bits + i),
                            msg.bit(static_cast<std::size_t>(i)));
          }
        }
        phy::apply_bit_noise(sf, ber, rng);
        for (int first : {0, c.al}) {
          const auto want = majority_reference(sf, first, c.al, msg_bits);
          majority_decode(sf, first, c.al, msg_bits, vote);
          ASSERT_EQ(vote, want) << "format " << static_cast<int>(c.format)
                                << " AL " << c.al << " BER " << ber;
          const bool agrees = region_agrees(sf, first, c.al, vote);
          ASSERT_EQ(agrees, region_agrees_reference(sf, first, c.al, vote))
              << "format " << static_cast<int>(c.format) << " AL " << c.al
              << " BER " << ber;
          ASSERT_EQ(region_agrees(sf, first, c.al, msg),
                    region_agrees_reference(sf, first, c.al, msg));
          agreeing += agrees ? 1 : 0;
        }
      }
    }
  }
  // Both outcomes of the agreement check are exercised.
  EXPECT_GT(agreeing, 0);
  EXPECT_LT(agreeing, static_cast<int>(cases.size()) * 3 * 12 * 2);
}

// ---------------------------------------------------------------- fusion

TEST(MessageFusion, AlignsBySubframe) {
  std::vector<FusedSubframe> out;
  MessageFusion fusion([&](const FusedSubframe& f) { out.push_back(f); });
  fusion.register_cell(1);
  fusion.register_cell(2);

  fusion.on_decoded(1, 100, {make_dci(0x100, 5)});
  EXPECT_TRUE(out.empty());  // waiting for cell 2
  fusion.on_decoded(2, 100, {make_dci(0x200, 7)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].time, 100 * util::kSubframe);
  ASSERT_EQ(out[0].cells.size(), 2u);
  EXPECT_EQ(out[0].cells[0].cell, 1u);
  EXPECT_EQ(out[0].cells[1].cell, 2u);
  EXPECT_EQ(out[0].cells[0].messages[0].rnti, 0x100);
}

TEST(MessageFusion, MissingCellFlushedByNextSubframe) {
  std::vector<FusedSubframe> out;
  MessageFusion fusion([&](const FusedSubframe& f) { out.push_back(f); });
  fusion.register_cell(1);
  fusion.register_cell(2);

  fusion.on_decoded(1, 100, {});     // cell 2 never reports sf 100
  fusion.on_decoded(1, 101, {});
  EXPECT_EQ(out.size(), 1u);         // sf 100 flushed incomplete
  fusion.on_decoded(2, 101, {});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].time, 100 * util::kSubframe);
  EXPECT_EQ(out[0].cells[0].sf_index, 100);
  EXPECT_TRUE(out[0].cells[1].messages.empty());
  EXPECT_EQ(out[1].time, 101 * util::kSubframe);
}

TEST(MessageFusion, SingleCellImmediate) {
  int n = 0;
  MessageFusion fusion([&](const FusedSubframe&) { ++n; });
  fusion.register_cell(9);
  for (int sf = 0; sf < 5; ++sf) fusion.on_decoded(9, sf, {});
  EXPECT_EQ(n, 5);
}

// ------------------------------------------------------------ user tracker

TEST(UserTracker, TracksOwnAllocationAndIdle) {
  UserTracker tr{50};
  const auto s =
      tr.on_subframe(0, {make_dci(0x100, 20), make_dci(0x200, 10)}, 0x100);
  EXPECT_EQ(s.own_prbs, 20);
  EXPECT_GT(s.own_bits_per_prb, 0);
  EXPECT_EQ(s.allocated_prbs, 30);
  EXPECT_EQ(s.idle_prbs, 20);
  EXPECT_EQ(s.raw_active_users, 2);
}

TEST(UserTracker, UplinkGrantsIgnoredForPrbs) {
  UserTracker tr{50};
  const auto s =
      tr.on_subframe(0, {make_dci(0x300, 4, 0, phy::DciFormat::kFormat0)}, 0x100);
  EXPECT_EQ(s.allocated_prbs, 0);
  EXPECT_EQ(s.idle_prbs, 50);
}

TEST(UserTracker, ControlTrafficFiltered) {
  UserTracker tr{50};
  // A one-subframe, 4-PRB user: the paper's canonical parameter-update
  // pattern; must not count as a data user.
  tr.on_subframe(0, {make_dci(0x100, 20), make_dci(0x900, 4)}, 0x100);
  const auto s = tr.on_subframe(1, {make_dci(0x100, 20)}, 0x100);
  EXPECT_EQ(s.raw_active_users, 2);
  EXPECT_EQ(s.data_users, 1);  // just us
}

TEST(UserTracker, PersistentWideUserCounts) {
  UserTracker tr{50};
  UserTracker::SubframeSummary s;
  for (int sf = 0; sf < 10; ++sf) {
    s = tr.on_subframe(sf, {make_dci(0x100, 20), make_dci(0x777, 12)}, 0x100);
  }
  EXPECT_EQ(s.data_users, 2);
}

TEST(UserTracker, SelfAlwaysCounted) {
  UserTracker tr{50};
  const auto s = tr.on_subframe(0, {}, 0x100);
  EXPECT_EQ(s.data_users, 1);
}

TEST(UserTracker, WindowExpiry) {
  UserTrackerConfig cfg;
  cfg.window = 10 * util::kMillisecond;
  UserTracker tr{50, cfg};
  tr.on_subframe(0, {make_dci(0x777, 12)}, 0x100);
  tr.on_subframe(1, {make_dci(0x777, 12)}, 0x100);
  EXPECT_EQ(tr.raw_users(), 1);
  tr.on_subframe(30, {}, 0x100);  // far beyond the window
  EXPECT_EQ(tr.raw_users(), 0);
}

TEST(UserTracker, ActivitySnapshot) {
  UserTracker tr{50};
  tr.on_subframe(0, {make_dci(0x777, 10)}, 0x100);
  tr.on_subframe(1, {make_dci(0x777, 20)}, 0x100);
  const auto acts = tr.activity();
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].rnti, 0x777);
  EXPECT_EQ(acts[0].active_subframes, 2);
  EXPECT_DOUBLE_EQ(acts[0].average_prbs, 15.0);
}

// ----------------------------------------------------------------- monitor

TEST(Monitor, EndToEndPipeline) {
  phy::CellConfig c1{1, 10.0};
  phy::CellConfig c2{2, 10.0};
  std::vector<std::vector<CellObservation>> outputs;
  Monitor mon(0x100, {c1, c2},
              [&](const std::vector<CellObservation>& obs) {
                outputs.push_back(obs);
              });

  for (int sf = 0; sf < 5; ++sf) {
    phy::PdcchBuilder b1(c1, sf);
    ASSERT_TRUE(b1.add(make_dci(0x100, 30), 1));
    mon.on_pdcch(std::move(b1).build());
    phy::PdcchBuilder b2(c2, sf);
    ASSERT_TRUE(b2.add(make_dci(0x200, 10), 1));
    mon.on_pdcch(std::move(b2).build());
  }
  ASSERT_EQ(outputs.size(), 5u);
  ASSERT_EQ(outputs[0].size(), 2u);
  EXPECT_EQ(outputs[0][0].cell, 1u);
  EXPECT_EQ(outputs[0][0].summary.own_prbs, 30);
  EXPECT_EQ(outputs[0][1].cell, 2u);
  EXPECT_EQ(outputs[0][1].summary.own_prbs, 0);
  EXPECT_EQ(outputs[0][1].summary.allocated_prbs, 10);
}

TEST(Monitor, IgnoresForeignCells) {
  phy::CellConfig c1{1, 10.0};
  phy::CellConfig c9{9, 10.0};
  int outputs = 0;
  Monitor mon(0x100, {c1}, [&](const auto&) { ++outputs; });
  phy::PdcchBuilder b(c9, 0);
  mon.on_pdcch(std::move(b).build());
  EXPECT_EQ(outputs, 0);
  EXPECT_FALSE(mon.has_cell(9));
  EXPECT_TRUE(mon.has_cell(1));
}

TEST(Monitor, NoisyChannelLosesSomeMessages) {
  phy::CellConfig c1{1, 10.0};
  int own_seen = 0, sfs = 0;
  Monitor mon(0x100, {c1},
              [&](const std::vector<CellObservation>& obs) {
                ++sfs;
                own_seen += obs[0].summary.own_prbs > 0 ? 1 : 0;
              },
              [](phy::CellId) { return 0.02; });  // lossy control channel
  for (int sf = 0; sf < 100; ++sf) {
    phy::PdcchBuilder b(c1, sf);
    ASSERT_TRUE(b.add(make_dci(0x100, 30), 1));  // AL1: fragile
    mon.on_pdcch(std::move(b).build());
  }
  EXPECT_EQ(sfs, 100);
  EXPECT_LT(own_seen, 100);  // some messages genuinely lost
  EXPECT_GT(own_seen, 0);    // but not all
}

}  // namespace
}  // namespace pbecc::decoder
