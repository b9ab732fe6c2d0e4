// Synthetic physical downlink control channel (PDCCH).
//
// This is the encode side of the SDR substitution: instead of live I/Q
// samples, each cell emits one PdcchSubframe per scheduling tick (a 1 ms
// LTE subframe or an NR slot) — a control region of CCEs (control channel
// elements, 72 bits each) into which DCI messages are packed at an
// aggregation level of 1/2/4/8 CCEs (up to 16 on NR). The cell's
// PdcchCoding picks the code: repetition, or the convolutional code with
// rate matching (which NR's polar tag stands in for). A channel then flips
// bits at the monitor's control BER, and the blind decoder (src/decoder)
// searches candidates exactly the way the paper's srsLTE-based decoder
// does.
//
// PdcchBuilder splits placement from encoding. add() makes every decision
// that shapes the schedule (which DCIs fit and on which CCEs) without
// touching a bit; build() allocates the bit plane and encodes what was
// placed. Only monitors read the bits, so a cell nobody observes never
// calls build() and never pays for the encoding.
#pragma once

#include <cstdint>
#include <vector>

#include "nr/coreset.h"
#include "phy/cell_config.h"
#include "phy/convolutional.h"
#include "phy/dci.h"
#include "util/bitvec.h"
#include "util/rng.h"
#include "util/time.h"

namespace pbecc::phy {

inline constexpr int kBitsPerCce = 72;
inline constexpr int kAggregationLevels[] = {1, 2, 4, 8};
// NR search spaces extend the ladder to AL16 (nr::kNrAggregationLevels);
// the largest level any cell type may use.
inline constexpr int kMaxAggregationLevel = 16;

// Pick the aggregation level the base station would use for a user at the
// given control-channel SINR: poorer channels get more CCEs.
int aggregation_level_for_sinr(double sinr_db);

struct PdcchSubframe {
  CellId cell_id = 0;
  // Tick index on this cell's clock: the subframe index for LTE cells, the
  // slot index (subframe * slots_per_subframe + slot) for NR cells. The
  // tick's start instant is sf_index * tick.
  std::int64_t sf_index = 0;
  int n_cces = 0;
  PdcchCoding coding = PdcchCoding::kRepetition;
  // Duration of one tick on this cell's clock (1 ms for LTE, the slot
  // length for NR numerologies).
  util::Duration tick = util::kSubframe;
  util::BitVec bits;  // n_cces * kBitsPerCce bits
  // Encoder-side occupancy (ground truth), which is also the per-CCE
  // energy a monitor senses: bit c is CCE c, set when a placed message
  // covers it. Read it through energy_word(), which holds the rule for
  // CCEs past its end.
  util::BitVec cce_used;

  bool operator==(const PdcchSubframe&) const = default;
};

// CCE maps (cce_used, the decoder's claims, its candidate starts) are
// read a word at a time in util::BitVec's layout: CCE 64w + k is bit
// 63 - k of word w.

// Word `w` of the energy map `cce_used`; a set bit is an energized CCE. A
// CCE past the end of the map counts as energized, so a region with a
// short map, or none, is noised, searched and recorded whole.
// apply_bit_noise, decoder::BlindDecoder and cap::encode_record all read
// the map through this one rule.
inline std::uint64_t energy_word(const util::BitVec& cce_used,
                                 std::size_t w) {
  constexpr std::size_t kWordBits = util::BitVec::kWordBits;
  if (w * kWordBits >= cce_used.size()) return ~0ULL;
  const std::size_t in_map = cce_used.size() - w * kWordBits;
  const std::uint64_t v = cce_used.word(w);
  return in_map >= kWordBits ? v : v | (~0ULL >> in_map);
}

// The first CCE of every run of `al` CCEs that starts at a multiple of
// `al` (1, 2, 4, 8 or 16). `al` divides 64, so no aligned run straddles
// two words.
constexpr std::uint64_t aligned_run_leads(int al) {
  switch (al) {
    case 1: return ~0ULL;
    case 2: return 0xAAAAAAAAAAAAAAAAULL;
    case 4: return 0x8888888888888888ULL;
    case 8: return 0x8080808080808080ULL;
    default: return 0x8000800080008000ULL;  // 16
  }
}

// The lead bit of every aligned run of `al` CCEs that holds a set bit of
// `cces`: each run's bits are OR-folded into its lead.
constexpr std::uint64_t aligned_runs_hit(std::uint64_t cces, int al) {
  if (al >= 2) cces |= cces << 1;
  if (al >= 4) cces |= cces << 2;
  if (al >= 8) cces |= cces << 4;
  if (al >= 16) cces |= cces << 8;
  return cces & aligned_run_leads(al);
}

// Packs DCI messages into one tick's control region.
class PdcchBuilder {
 public:
  PdcchBuilder(const CellConfig& cfg, std::int64_t sf_index);

  // Place `dci` at the first free candidate of the level: LTE takes the
  // first free aligned run a word of CCEs at a time, NR walks exactly the
  // cell's search-space candidate list (nr::visit_candidate_starts, which
  // the blind decoder walks too). Returns false if the
  // message cannot be carried at this level or no candidate is free
  // (message dropped, as in a real cell whose PDCCH is exhausted). Throws
  // std::invalid_argument for an aggregation level the RAT lacks or a DCI
  // encode_dci() would refuse. Records the placement; encodes nothing.
  bool add(const Dci& dci, int aggregation_level);

  // As add(), but escalates the aggregation level (doubling up to 8 on
  // LTE, 16 on NR) when the requested one cannot carry the message — e.g.
  // a long DCI under convolutional coding needs at least the AL whose
  // rate-matched block keeps the code rate below 1/2.
  bool add_escalating(const Dci& dci, int aggregation_level);

  int cces_free() const;

  // The tick's control region: a zeroed n_cces x kBitsPerCce plane with
  // every placed DCI encoded at its CCEs. Placements never overlap, so the
  // order they are encoded in does not matter.
  PdcchSubframe build() &&;

 private:
  struct Placement {
    Dci dci;
    int start_cce;
    int al;
  };

  // The first free candidate of the level, or -1.
  int first_free_lte(int al) const;
  int first_free_nr(int al) const;

  CellConfig cfg_;
  PdcchSubframe sf_;  // everything but `bits` until build()
  std::vector<Placement> placed_;
};

// Flip each bit of an energized CCE (energy_word) independently with
// probability `ber` — the monitor-side reception noise. (The scheduled
// user itself sees the same channel.) A silent CCE's bits stay as they
// are, since no decoder reads a candidate that touches one. Takes exactly
// one rng.bernoulli(ber) draw per bit of the whole region, in bit order,
// whether or not the bit can flip, and none when ber <= 0; every pinned
// digest depends on that stream (phy_test pins it).
void apply_bit_noise(PdcchSubframe& sf, double ber, util::Rng& rng);

// Number of repetitions of a (payload+CRC) message of `msg_bits` bits that
// fit in `agg_level` CCEs; 0 if it does not fit at all.
int repetitions_that_fit(int msg_bits, int agg_level);

// Whether an AL-`al` candidate under `coding` can carry a `format`
// message: one whole repetition, or for the convolutional code (and
// kPolar's stand-in) a rate-matched block of code rate at most 1/2
// (conv_min_region_bits). PdcchBuilder places only, and BlindDecoder
// tries only, the formats this admits.
bool format_fits(PdcchCoding coding, DciFormat format, int al);

}  // namespace pbecc::phy
