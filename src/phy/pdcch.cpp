#include "phy/pdcch.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace pbecc::phy {

int aggregation_level_for_sinr(double sinr_db) {
  // Conservative link adaptation for the control channel: losing a DCI is
  // far costlier than the extra CCEs (an unseen grant looks like idle
  // spectrum to monitors and stalls the scheduled user), so cells move to
  // high aggregation well before the cell edge.
  if (sinr_db >= 13.0) return 1;
  if (sinr_db >= 8.0) return 2;
  if (sinr_db >= 2.0) return 4;
  return 8;
}

int repetitions_that_fit(int msg_bits, int agg_level) {
  if (msg_bits <= 0) return 0;
  return (agg_level * kBitsPerCce) / msg_bits;
}

bool format_fits(PdcchCoding coding, DciFormat format, int al) {
  const int msg_bits = dci_message_bits(format);
  if (coding == PdcchCoding::kRepetition) {
    return repetitions_that_fit(msg_bits, al) > 0;
  }
  return static_cast<std::size_t>(al) * kBitsPerCce >=
         conv_min_region_bits(static_cast<std::size_t>(msg_bits));
}

PdcchBuilder::PdcchBuilder(const CellConfig& cfg, std::int64_t sf_index)
    : cfg_(cfg) {
  sf_.cell_id = cfg.id;
  sf_.sf_index = sf_index;
  sf_.n_cces = cfg.n_cces();
  sf_.coding = cfg.pdcch_coding;
  sf_.tick = cfg.tick();
  sf_.cce_used = util::BitVec(static_cast<std::size_t>(sf_.n_cces));
}

int PdcchBuilder::cces_free() const {
  return sf_.n_cces -
         static_cast<int>(sf_.cce_used.popcount(0, sf_.cce_used.size()));
}

int PdcchBuilder::first_free_lte(int al) const {
  // Every AL-aligned start that fits (the 36.213 UE-specific search space,
  // simplified), a word of CCEs at a time: fold each aligned run's
  // occupancy into its lead and take the first lead left clear.
  constexpr std::size_t kWordBits = util::BitVec::kWordBits;
  const auto n = static_cast<std::size_t>(sf_.n_cces);
  const auto len = static_cast<std::size_t>(al);
  if (n < len) return -1;
  const std::size_t n_starts = n - len + 1;  // a start below this fits
  for (std::size_t w = 0; w * kWordBits < n_starts; ++w) {
    std::uint64_t free = aligned_run_leads(al) &
                         ~aligned_runs_hit(sf_.cce_used.word(w), al);
    const std::size_t left = n_starts - w * kWordBits;
    if (left < kWordBits) free &= ~0ULL << (kWordBits - left);
    if (free != 0) {
      return static_cast<int>(w * kWordBits) + std::countl_zero(free);
    }
  }
  return -1;
}

int PdcchBuilder::first_free_nr(int al) const {
  // The cell's search-space candidates (38.213 §10.1), one masked window
  // of the occupancy map each.
  const std::uint64_t run = ~0ULL << (util::BitVec::kWordBits -
                                      static_cast<std::size_t>(al));
  return nr::visit_candidate_starts(
      sf_.n_cces, al, cfg_.search_space.candidates_for(al),
      [this, run](int start) {
        return (sf_.cce_used.window(static_cast<std::size_t>(start)) & run) ==
               0;
      });
}

bool PdcchBuilder::add(const Dci& dci, int aggregation_level) {
  const int al = aggregation_level;
  const bool is_nr = cfg_.rat == Rat::kNr;
  if (al != 1 && al != 2 && al != 4 && al != 8 && !(is_nr && al == 16)) {
    throw std::invalid_argument(is_nr ? "aggregation level must be 1/2/4/8/16"
                                      : "aggregation level must be 1/2/4/8");
  }
  validate_dci(dci);
  if (!format_fits(sf_.coding, dci.format, al)) return false;

  // First fit over the level's candidates. Starts are multiples of the
  // level, so the run lies inside one word of the map, and it is free, so
  // XOR sets it.
  const int start = is_nr ? first_free_nr(al) : first_free_lte(al);
  if (start < 0) return false;
  constexpr std::size_t kWordBits = util::BitVec::kWordBits;
  const auto s = static_cast<std::size_t>(start);
  sf_.cce_used.xor_word(s / kWordBits,
                        (~0ULL << (kWordBits - static_cast<std::size_t>(al))) >>
                            (s % kWordBits));
  placed_.push_back({dci, start, al});
  return true;
}

bool PdcchBuilder::add_escalating(const Dci& dci, int aggregation_level) {
  const int max_al = cfg_.rat == Rat::kNr ? kMaxAggregationLevel : 8;
  for (int al = aggregation_level; al <= max_al; al *= 2) {
    if (add(dci, al)) return true;
  }
  return false;
}

PdcchSubframe PdcchBuilder::build() && {
  sf_.bits = util::BitVec(static_cast<std::size_t>(sf_.n_cces) * kBitsPerCce);
  for (const Placement& p : placed_) {
    const util::BitVec msg = encode_dci(p.dci);
    const auto base = static_cast<std::size_t>(p.start_cce) * kBitsPerCce;
    if (sf_.coding == PdcchCoding::kRepetition) {
      // Repetition-code the message across the aggregated CCEs; leftover
      // bits keep their (zero) filler value.
      const int reps = repetitions_that_fit(static_cast<int>(msg.size()), p.al);
      for (int r = 0; r < reps; ++r) {
        sf_.bits.write_range(base + static_cast<std::size_t>(r) * msg.size(),
                             msg);
      }
    } else {
      const auto region_bits = static_cast<std::size_t>(p.al) * kBitsPerCce;
      sf_.bits.write_range(base, rate_match(conv_encode(msg), region_bits));
    }
  }
  return std::move(sf_);
}

void apply_bit_noise(PdcchSubframe& sf, double ber, util::Rng& rng) {
  if (ber <= 0.0) return;
  // One Bernoulli draw per bit in bit order, gathered into one flip mask
  // per word: the RNG stream is the per-bit loop's exactly. Words whose
  // CCEs are all silent compute no flips: a run of them, up to the first
  // word of the next energized CCE, is discarded with one call, and the
  // Rng owes the draws until it next draws, so silent runs here and in
  // the regions noised after this one cost one skip.
  constexpr std::size_t kWordBits = util::BitVec::kWordBits;
  constexpr auto kCceBits = static_cast<std::size_t>(kBitsPerCce);
  const util::BitVec& map = sf.cce_used;
  const auto energized = [&map](std::size_t c) {
    return ((energy_word(map, c / kWordBits) << (c % kWordBits)) >> 63) != 0;
  };
  // The first energized CCE at or after `c`. Past the map's end every CCE
  // counts as energized, so the scan ends there at the latest.
  const auto next_energized = [&map](std::size_t c) {
    std::size_t w = c / kWordBits;
    std::uint64_t e = energy_word(map, w) & (~0ULL >> (c % kWordBits));
    while (e == 0) e = energy_word(map, ++w);
    return w * kWordBits + static_cast<std::size_t>(std::countl_zero(e));
  };
  const std::uint64_t cutoff = util::Rng::bernoulli_cutoff(ber);
  const std::size_t n = sf.bits.size();
  const std::size_t n_words = sf.bits.num_words();
  for (std::size_t w = 0; w < n_words;) {
    const std::size_t first = w * kWordBits;
    const std::size_t len = std::min(kWordBits, n - first);
    // A word is shorter than a CCE, so it touches at most two.
    const std::size_t c0 = first / kCceBits;
    const std::size_t c1 = (first + len - 1) / kCceBits;
    const bool e0 = energized(c0);
    const bool e1 = energized(c1);
    if (!e0 && !e1) {
      // The next word with energy is the one holding the next energized
      // CCE's first bit, if that bit lies in the region.
      const std::size_t from = next_energized(c1 + 1) * kCceBits;
      const std::size_t next = from < n ? from / kWordBits : n_words;
      rng.discard(std::min(next * kWordBits, n) - first);
      w = next;
      continue;
    }
    std::uint64_t mask = rng.bernoulli_bits(len, cutoff) << (kWordBits - len);
    if (e0 != e1) {
      // The word's first `head` bits (1..63) are c0's, the rest c1's.
      const std::size_t head = c1 * kCceBits - first;
      const std::uint64_t head_mask = ~0ULL << (kWordBits - head);
      mask &= e0 ? head_mask : ~head_mask;
    }
    sf.bits.xor_word(w, mask);
    ++w;
  }
}

}  // namespace pbecc::phy
