// Unit tests for src/decoder: blind decoding, message fusion, user
// tracking, and the assembled monitor pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "check/check.h"
#include "decoder/blind_decoder.h"
#include "decoder/message_fusion.h"
#include "decoder/monitor.h"
#include "decoder/user_tracker.h"
#include "fault/fault.h"
#include "nr/coreset.h"
#include "nr/numerology.h"
#include "phy/convolutional.h"
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
    sf.cce_used = util::BitVec(sf.cce_used.size(), true);
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

// A decoder reconfigured onto another NR CORESET walks the new cell's
// candidate list. One subframe per level fills every candidate of that
// level: the reconfigured decoder must recover every placed DCI and try
// exactly the candidates a decoder built for the new cell tries. The
// denser search space keeps the CCE count, so only the reconfiguration can
// tell the decoder its candidate list changed.
TEST(BlindDecoder, ReconfiguredNrDecoderMatchesAFreshOne) {
  phy::CellConfig from{2, 50.0};
  from.rat = phy::Rat::kNr;
  from.scs = nr::Scs::k30kHz;
  from.coreset = {48, 2};  // 16 CCEs, default search space
  phy::CellConfig dense = from;
  dense.coreset = {96, 1};  // 16 CCEs
  dense.search_space.candidates = {8, 8, 4, 1, 1};
  phy::CellConfig small = from;
  small.coreset = {30, 2};  // 10 CCEs
  for (const phy::CellConfig& to : {dense, small}) {
    BlindDecoder moved{from};
    {
      phy::PdcchBuilder b(from, 0);
      ASSERT_TRUE(b.add(make_dci(0x100, 10, 0, phy::DciFormat::kNrFormat1_0), 2));
      ASSERT_EQ(moved.decode(std::move(b).build()).size(), 1u);
    }
    moved.reconfigure(to);
    BlindDecoder fresh{to};
    std::int64_t sf_index = 1;
    for (const int al : {16, 8, 4, 2, 1}) {
      if (al > to.n_cces()) continue;
      phy::PdcchBuilder b(to, sf_index++);
      std::vector<phy::Rnti> placed;
      for (phy::Rnti rnti = 0x200;
           b.add(make_dci(rnti, 10, 0, phy::DciFormat::kNrFormat1_0), al);
           ++rnti) {
        placed.push_back(rnti);
      }
      ASSERT_FALSE(placed.empty()) << "AL " << al;
      const auto sf = std::move(b).build();
      const DecodeRun got = moved.decode_compute(sf);
      const DecodeRun want = fresh.decode_compute(sf);
      std::vector<phy::Rnti> decoded;
      for (const auto& f : got.found) decoded.push_back(f.dci.rnti);
      EXPECT_EQ(decoded, placed) << "AL " << al;
      ASSERT_EQ(got.found.size(), want.found.size()) << "AL " << al;
      for (std::size_t i = 0; i < got.found.size(); ++i) {
        EXPECT_EQ(got.found[i].dci, want.found[i].dci);
        EXPECT_EQ(got.found[i].al, want.found[i].al);
      }
      EXPECT_EQ(got.delta.candidates_by_al, want.delta.candidates_by_al)
          << "AL " << al;
    }
  }
}

// The blind search as written before the energy map became a word mask,
// kept as the reference: walk each level's start list in order, skip a
// candidate when a CCE is silent (past the map's end counts as energized)
// or claimed, checked one CCE at a time, and decode the rest with the
// public kernels. Memo hits are counted against the last span seen at each
// (level, position); a hit replays the outcome without a Viterbi run.
class ReferenceSearch {
 public:
  explicit ReferenceSearch(phy::CellConfig cell) : cell_(cell) {}

  DecodeRun run(const phy::PdcchSubframe& sf) {
    DecodeRun out;
    out.sf_index = sf.sf_index;
    out.tick = sf.tick;
    out.delta.subframes = 1;
    const bool nr = cell_.rat == phy::Rat::kNr;
    std::vector<bool> claimed(static_cast<std::size_t>(sf.n_cces), false);
    for (const int al : {16, 8, 4, 2, 1}) {
      std::vector<int> starts;
      if (nr) {
        nr::visit_candidate_starts(sf.n_cces, al,
                                   cell_.search_space.candidates_for(al),
                                   [&starts](int s) {
                                     starts.push_back(s);
                                     return false;
                                   });
      } else if (al != 16) {
        for (int s = 0; s + al <= sf.n_cces; s += al) starts.push_back(s);
      }
      const auto ai = static_cast<std::size_t>(al_index(al));
      for (const int start : starts) {
        bool skip = false;
        for (int c = start; c < start + al; ++c) {
          const auto ci = static_cast<std::size_t>(c);
          const bool energized =
              ci >= sf.cce_used.size() || sf.cce_used.bit(ci);
          if (claimed[ci] || !energized) skip = true;
        }
        if (skip) continue;
        util::BitVec span;
        sf.bits.copy_range(static_cast<std::size_t>(start) * phy::kBitsPerCce,
                           static_cast<std::size_t>(al) * phy::kBitsPerCce,
                           span);
        auto& last = memo_[{al, start}];
        const bool hit = last.first == sf.coding && last.second == span &&
                         !last.second.empty();
        last = {sf.coding, span};
        const Outcome o = decode(sf, al, start, span);
        DecodeStats& d = out.delta;
        d.candidates_tried += o.attempts;
        d.candidates_by_al[ai] += o.attempts;
        d.crc_failures += o.failures;
        d.crc_failures_by_al[ai] += o.failures;
        d.early_aborts += o.early_aborts;
        d.screen_rejects += o.screen_rejects;
        if (hit) {
          ++d.memo_hits;
        } else {
          d.lane_batches += o.viterbi_runs;
        }
        if (o.dci.has_value()) {
          ++d.messages_decoded;
          ++d.decoded_by_al[ai];
          out.found.push_back({*o.dci, al});
          for (int c = start; c < start + al; ++c) {
            claimed[static_cast<std::size_t>(c)] = true;
          }
        }
      }
    }
    return out;
  }

 private:
  struct Outcome {
    std::uint64_t attempts = 0, failures = 0, early_aborts = 0;
    std::uint64_t screen_rejects = 0, viterbi_runs = 0;
    std::optional<phy::Dci> dci;
  };

  Outcome decode(const phy::PdcchSubframe& sf, int al, int start,
                 const util::BitVec& span) const {
    const bool nr = cell_.rat == phy::Rat::kNr;
    const bool viterbi = sf.coding != phy::PdcchCoding::kRepetition;
    const auto region_bits = static_cast<double>(span.size());
    auto matches = static_cast<std::int32_t>(0.85 * region_bits);
    while (static_cast<double>(matches) < 0.85 * region_bits) ++matches;
    const std::int32_t thr =
        2 * matches - static_cast<std::int32_t>(span.size());
    std::vector<std::int32_t> prefix(span.size() + 1);
    phy::vote_prefix(span, prefix.data());
    Outcome o;
    util::BitVec bits;
    const auto formats = nr ? std::vector<phy::DciFormat>(
                                  std::begin(phy::kNrDciFormats),
                                  std::end(phy::kNrDciFormats))
                            : std::vector<phy::DciFormat>(
                                  std::begin(phy::kLteDciFormats),
                                  std::end(phy::kLteDciFormats));
    for (const phy::DciFormat format : formats) {
      if (!phy::format_fits(sf.coding, format, al)) continue;
      const int msg_bits = phy::dci_message_bits(format);
      ++o.attempts;
      if (viterbi) {
        ++o.viterbi_runs;
        const auto d = phy::conv_decode(span, static_cast<std::size_t>(msg_bits),
                                        bits, prefix.data(), thr);
        if (d.aborted || d.metric < thr) {
          ++o.failures;
          o.early_aborts += d.aborted ? 1 : 0;
          continue;
        }
      } else {
        majority_decode(sf, start, al, msg_bits, bits);
      }
      if (!phy::dci_crc_screen(bits, format)) {
        ++o.failures;
        ++o.screen_rejects;
        continue;
      }
      const auto dci = phy::decode_dci(bits, format, cell_.n_prbs());
      if (!dci.has_value() ||
          (!viterbi && !region_agrees(sf, start, al, bits))) {
        ++o.failures;
        continue;
      }
      o.dci = dci;
      break;
    }
    return o;
  }

  phy::CellConfig cell_;
  std::map<std::pair<int, int>, std::pair<phy::PdcchCoding, util::BitVec>>
      memo_;
};

phy::CellConfig nr_cell(nr::Scs scs, int rbs) {
  phy::CellConfig cell{7, scs == nr::Scs::k120kHz ? 50.0 : 40.0};
  cell.rat = phy::Rat::kNr;
  cell.scs = scs;
  cell.coreset = {rbs, 2};
  cell.pdcch_coding = phy::PdcchCoding::kPolar;
  return cell;
}

// The word-mask candidate search against ReferenceSearch: the same found
// list in the same order and every DecodeStats field equal, tick by tick,
// on LTE 5/10/20 MHz repetition, 20 MHz convolutional and 30/120 kHz NR
// cells (one with four AL16 candidates), with the energy map as built,
// widened, thinned, all set and cut short, and with noise.
TEST(BlindDecoder, CandidateSearchMatchesPerBitReference) {
  phy::CellConfig conv{4, 20.0};
  conv.pdcch_coding = phy::PdcchCoding::kConvolutional;
  phy::CellConfig wide_nr = nr_cell(nr::Scs::k30kHz, 144);  // 48 CCEs
  wide_nr.coreset.symbols = 3;                               // 72 CCEs
  wide_nr.search_space.candidates = {6, 6, 4, 4, 4};
  const phy::CellConfig cells[] = {
      {1, 5.0}, {2, 10.0}, {3, 20.0}, conv,
      nr_cell(nr::Scs::k30kHz, 48), nr_cell(nr::Scs::k120kHz, 30), wide_nr};
  util::Rng rng{2025};
  std::uint64_t memo_hits = 0;
  std::uint64_t al16_decoded = 0;
  for (const phy::CellConfig& cell : cells) {
    const bool nr = cell.rat == phy::Rat::kNr;
    const phy::DciFormat* formats =
        nr ? phy::kNrDciFormats : phy::kLteDciFormats;
    const auto n_formats = static_cast<std::int64_t>(
        nr ? std::size(phy::kNrDciFormats) : std::size(phy::kLteDciFormats));
    BlindDecoder dec{cell};
    ReferenceSearch ref{cell};
    for (int t = 0; t < 60; ++t) {
      phy::PdcchBuilder b(cell, t);
      // A persistent grant (memo hits on clean ticks), then random ones.
      b.add_escalating(make_dci(0x3A0, 6, 0, formats[0]), 2);
      const auto n = rng.uniform_int(0, 12);
      for (std::int64_t k = 0; k < n; ++k) {
        const auto fmt = formats[rng.uniform_int(0, n_formats - 1)];
        b.add_escalating(
            make_dci(static_cast<phy::Rnti>(0x400 + rng.uniform_int(0, 255)),
                     static_cast<int>(rng.uniform_int(1, 6)),
                     static_cast<int>(rng.uniform_int(0, 6)), fmt),
            1 << rng.uniform_int(0, nr ? 4 : 3));
      }
      phy::PdcchSubframe sf = std::move(b).build();
      const std::size_t n_cces = sf.cce_used.size();
      switch (t % 5) {
        case 0:  // as built
          break;
        case 1:  // extra energized CCEs
          for (std::size_t c = 0; c < n_cces; ++c) {
            if (rng.bernoulli(0.3)) sf.cce_used.set_bit(c, true);
          }
          break;
        case 2:  // some placed CCEs silenced
          for (std::size_t c = 0; c < n_cces; ++c) {
            if (rng.bernoulli(0.2)) sf.cce_used.set_bit(c, false);
          }
          break;
        case 3:  // every CCE energized
          sf.cce_used = util::BitVec(n_cces, true);
          break;
        default: {  // a short map: the rest counts as energized
          util::BitVec cut;
          sf.cce_used.copy_range(
              0, static_cast<std::size_t>(rng.uniform_int(0, n_cces - 1)), cut);
          sf.cce_used = cut;
          break;
        }
      }
      const double bers[] = {0.0, 0.0, 1e-3, 0.02};
      phy::apply_bit_noise(sf, bers[rng.uniform_int(0, 3)], rng);

      const DecodeRun want = ref.run(sf);
      const DecodeRun got = dec.decode_compute(sf);
      ASSERT_EQ(got.found.size(), want.found.size())
          << "cell " << cell.id << " tick " << t;
      for (std::size_t i = 0; i < got.found.size(); ++i) {
        EXPECT_EQ(got.found[i].dci, want.found[i].dci)
            << "cell " << cell.id << " tick " << t << " #" << i;
        EXPECT_EQ(got.found[i].al, want.found[i].al)
            << "cell " << cell.id << " tick " << t << " #" << i;
      }
      ASSERT_EQ(got.delta, want.delta) << "cell " << cell.id << " tick " << t;
      memo_hits += got.delta.memo_hits;
      al16_decoded += got.delta.decoded_by_al[4];
    }
  }
  // The ticks exercise the memo and the AL16 lane, not just the misses.
  EXPECT_GT(memo_hits, 0u);
  EXPECT_GT(al16_decoded, 0u);
}

// 200 ticks of a Viterbi-coded cell at 1% BER with every CCE energized, so
// every unclaimed candidate of every level is tried: a persistent grant
// repeated each tick (memo hits whenever the noise spares its span), a
// grant to the SI-RNTI every 4th tick (outside the C-RNTI range, so the
// CRC screen rejects it), then up to three random grants of random
// formats and levels. Returns the decoder's accumulated stats.
DecodeStats noisy_viterbi_run(const phy::CellConfig& cell) {
  const bool nr = cell.rat == phy::Rat::kNr;
  const phy::DciFormat* formats = nr ? phy::kNrDciFormats : phy::kLteDciFormats;
  const auto n_formats = static_cast<std::int64_t>(
      nr ? std::size(phy::kNrDciFormats) : std::size(phy::kLteDciFormats));
  util::Rng rng{61};
  BlindDecoder dec{cell};
  for (int t = 0; t < 200; ++t) {
    phy::PdcchBuilder b(cell, t);
    b.add_escalating(make_dci(0x3A0, 10, 0, formats[1]), 4);
    if (t % 4 == 0) b.add_escalating(make_dci(0xFFFF, 8, 0, formats[1]), 2);
    const auto n = rng.uniform_int(0, 3);
    for (std::int64_t k = 0; k < n; ++k) {
      const auto fmt = formats[rng.uniform_int(0, n_formats - 1)];
      const int al = 1 << rng.uniform_int(0, 3);
      b.add_escalating(
          make_dci(static_cast<phy::Rnti>(0x400 + rng.uniform_int(0, 255)),
                   static_cast<int>(rng.uniform_int(1, 20)),
                   static_cast<int>(rng.uniform_int(0, 20)), fmt),
          al);
    }
    auto sf = std::move(b).build();
    sf.cce_used = util::BitVec(sf.cce_used.size(), true);
    phy::apply_bit_noise(sf, 0.01, rng);
    dec.decode(sf);
  }
  return dec.stats();
}

struct AccountingPin {
  std::array<std::uint64_t, kNumAlLanes> candidates;
  std::array<std::uint64_t, kNumAlLanes> crc_failures;
  std::array<std::uint64_t, kNumAlLanes> decoded;
  std::uint64_t early_aborts;
  std::uint64_t screen_rejects;
  std::uint64_t memo_hits;
};

void expect_accounting(const DecodeStats& st, const AccountingPin& pin) {
  EXPECT_EQ(st.candidates_by_al, pin.candidates);
  EXPECT_EQ(st.crc_failures_by_al, pin.crc_failures);
  EXPECT_EQ(st.decoded_by_al, pin.decoded);
  std::uint64_t candidates = 0, failures = 0, decoded = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(kNumAlLanes); ++i) {
    candidates += pin.candidates[i];
    failures += pin.crc_failures[i];
    decoded += pin.decoded[i];
  }
  EXPECT_EQ(st.candidates_tried, candidates);
  EXPECT_EQ(st.crc_failures, failures);
  EXPECT_EQ(st.messages_decoded, decoded);
  EXPECT_EQ(st.early_aborts, pin.early_aborts);
  EXPECT_EQ(st.screen_rejects, pin.screen_rejects);
  EXPECT_EQ(st.memo_hits, pin.memo_hits);
  EXPECT_EQ(st.subframes, 200u);
}

// Per-candidate accounting, pinned: every DecodeStats count but
// lane_batches (the Viterbi runs) for a convolutional 20 MHz LTE cell and
// a polar-coded 120 kHz NR cell. Each candidate runs the format loop until
// the first format validates; a loop that went on past it would raise the
// per-AL candidate and failure counts.
TEST(BlindDecoder, ViterbiAccountingIsPinned) {
  phy::CellConfig lte{1, 20.0};
  lte.pdcch_coding = phy::PdcchCoding::kConvolutional;
  expect_accounting(noisy_viterbi_run(lte),
                    {{0, 29695, 19423, 9851, 0},
                     {0, 29591, 19099, 9778, 0},
                     {0, 104, 324, 73, 0},
                     2039,
                     47,
                     3651});

  phy::CellConfig nr{2, 50.0};
  nr.rat = phy::Rat::kNr;
  nr.scs = nr::Scs::k120kHz;
  nr.coreset.rbs = 30;
  nr.coreset.symbols = 2;
  nr.pdcch_coding = phy::PdcchCoding::kPolar;
  expect_accounting(noisy_viterbi_run(nr),
                    {{0, 514, 957, 600, 0},
                     {0, 451, 693, 600, 0},
                     {0, 63, 264, 0, 0},
                     1015,
                     50,
                     38});
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
    mon.on_pdcch_batch({std::move(b1).build()});
    phy::PdcchBuilder b2(c2, sf);
    ASSERT_TRUE(b2.add(make_dci(0x200, 10), 1));
    mon.on_pdcch_batch({std::move(b2).build()});
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
  mon.on_pdcch_batch({std::move(b).build()});
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
    mon.on_pdcch_batch({std::move(b).build()});
  }
  EXPECT_EQ(sfs, 100);
  EXPECT_LT(own_seen, 100);  // some messages genuinely lost
  EXPECT_GT(own_seen, 0);    // but not all
}

// The monitor keeps its per-batch entries from one batch to the next, so
// nothing of a batch may leak into a later one. Batches that grow and
// shrink (three LTE cells, then one, then an LTE cell with an NR cell's
// eight slots, then a batch with a foreign cell, then one whose blackout
// skips an entry) must give the observations and per-cell stats of the
// same subframes fed as one-element batches.
TEST(Monitor, ReusedBatchBuffersLeakNothing) {
  const phy::CellConfig lte1{1, 10.0}, lte2{2, 10.0}, lte3{3, 10.0};
  const phy::CellConfig foreign{9, 10.0};
  phy::CellConfig nr{4, 50.0};
  nr.rat = phy::Rat::kNr;
  nr.scs = nr::Scs::k120kHz;
  nr.coreset.rbs = 30;
  nr.coreset.symbols = 2;
  nr.pdcch_coding = phy::PdcchCoding::kPolar;

  // The control regions of master subframe `sf` for `cells`, an NR cell's
  // one per slot, each carrying three grants at growing levels.
  const auto regions = [](std::int64_t sf,
                          const std::vector<phy::CellConfig>& cells) {
    std::vector<phy::PdcchSubframe> out;
    for (const phy::CellConfig& c : cells) {
      const bool is_nr = c.rat == phy::Rat::kNr;
      const int slots = c.slots_per_subframe();
      for (int s = 0; s < slots; ++s) {
        const std::int64_t tick = sf * slots + s;
        phy::PdcchBuilder b(c, tick);
        for (int k = 0; k < 3; ++k) {
          const auto rnti = static_cast<phy::Rnti>(
              0x100 + 0x10 * static_cast<int>(c.id) + (tick + k) % 5);
          b.add_escalating(
              make_dci(rnti, 4 + k, 8 * k,
                       is_nr ? phy::DciFormat::kNrFormat1_0
                             : phy::DciFormat::kFormat1),
              1 << k);
        }
        out.push_back(std::move(b).build());
      }
    }
    return out;
  };
  const std::vector<std::vector<phy::PdcchSubframe>> batches = {
      regions(0, {lte1, lte2, lte3}),
      regions(1, {lte1}),
      regions(2, {lte1, nr}),
      regions(3, {lte1, foreign, lte2}),
      regions(4, {lte1, nr}),
  };
  // Only the last batch's second NR slot falls in the blackout.
  fault::FaultProfile blackout;
  blackout.blackout_duty = 1.0;
  blackout.blackout_from = 4 * util::kSubframe + nr.tick();
  blackout.blackout_until = 4 * util::kSubframe + 2 * nr.tick();
  const fault::FaultInjector faults(blackout, 7);

  using Outputs = std::vector<std::vector<CellObservation>>;
  const auto make = [&](Outputs& outputs) {
    return Monitor(
        0x112, {lte1, lte2, lte3, nr},
        [&outputs](const std::vector<CellObservation>& o) {
          outputs.push_back(o);
        },
        [](phy::CellId) { return 0.003; }, {}, 31, &faults);
  };
  Outputs batched_out, single_out;
  Monitor batched = make(batched_out);
  Monitor single = make(single_out);
  for (const auto& batch : batches) {
    batched.on_pdcch_batch(batch);
    for (const auto& sf : batch) single.on_pdcch_batch({sf});
  }

  EXPECT_EQ(batched.decode_attempts(), 3u + 1 + 9 + 2 + 9);
  EXPECT_EQ(batched.decode_failures(), 1u);  // the blacked-out slot
  ASSERT_FALSE(batched_out.empty());
  EXPECT_EQ(batched_out, single_out);
  for (const phy::CellId id : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "cell " << id);
    EXPECT_GT(batched.decoder(id).stats().messages_decoded, 0u);
    EXPECT_EQ(batched.decoder(id).stats(), single.decoder(id).stats());
  }
  EXPECT_EQ(batched.decoder(4).stats().subframes, 15u);
}

// The Output callback must not feed its own monitor: a nested call records
// the invariant and is dropped, and the outer batch finishes intact.
TEST(Monitor, ReentrantBatchIsRecordedAndDropped) {
  check::reset();
  const phy::CellConfig c1{1, 10.0};
  Monitor* self = nullptr;
  phy::PdcchSubframe nested;
  std::vector<int> own_prbs;
  Monitor mon(0x100, {c1}, [&](const std::vector<CellObservation>& obs) {
    own_prbs.push_back(obs[0].summary.own_prbs);
    self->on_pdcch_batch({nested});
  });
  self = &mon;
  for (int sf = 0; sf < 3; ++sf) {
    phy::PdcchBuilder b(c1, sf);
    ASSERT_TRUE(b.add(make_dci(0x100, 30), 2));
    nested = std::move(b).build();
    mon.on_pdcch_batch({nested});
  }
  EXPECT_EQ(check::violations("monitor_batch_reentered"), 3u);
  EXPECT_EQ(own_prbs, (std::vector<int>{30, 30, 30}));
  EXPECT_EQ(mon.decode_attempts(), 3u);
  EXPECT_EQ(mon.decoder(1).stats().subframes, 3u);
  check::reset();
}

}  // namespace
}  // namespace pbecc::decoder
