#include "phy/pdcch.h"

#include <algorithm>
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
  sf_.cce_used.assign(static_cast<std::size_t>(sf_.n_cces), false);
}

int PdcchBuilder::cces_free() const {
  int free = 0;
  for (bool used : sf_.cce_used) free += used ? 0 : 1;
  return free;
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

  // First-fit over the level's candidates: every AL-aligned start for LTE
  // (the 36.213 UE-specific search space, simplified), the cell's
  // search-space candidate list for NR (38.213 §10.1 — the decoder walks
  // the identical list, so anything placed here is findable).
  std::vector<int> nr_starts;
  if (is_nr) {
    nr_starts = nr::candidate_starts(sf_.n_cces, al,
                                     cfg_.search_space.candidates_for(al));
  }
  const std::size_t n_candidates =
      is_nr ? nr_starts.size()
            : static_cast<std::size_t>(sf_.n_cces >= al ? (sf_.n_cces / al) : 0);
  for (std::size_t cand = 0; cand < n_candidates; ++cand) {
    const int start = is_nr ? nr_starts[cand] : static_cast<int>(cand) * al;
    if (start + al > sf_.n_cces) break;
    bool free = true;
    for (int c = start; c < start + al; ++c) {
      if (sf_.cce_used[static_cast<std::size_t>(c)]) { free = false; break; }
    }
    if (!free) continue;

    for (int c = start; c < start + al; ++c) {
      sf_.cce_used[static_cast<std::size_t>(c)] = true;
    }
    placed_.push_back({dci, start, al});
    return true;
  }
  return false;
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
  // per word: the RNG stream is the per-bit loop's exactly. A word whose
  // CCEs are all silent computes no flips; its draws are owed and paid in
  // one discard before the next word that does.
  constexpr std::size_t kWordBits = util::BitVec::kWordBits;
  constexpr auto kCceBits = static_cast<std::size_t>(kBitsPerCce);
  const auto energized = [&sf](std::size_t c) {
    return c >= sf.cce_used.size() || sf.cce_used[c];
  };
  const std::uint64_t cutoff = util::Rng::bernoulli_cutoff(ber);
  const std::size_t n = sf.bits.size();
  std::uint64_t owed = 0;
  for (std::size_t w = 0; w < sf.bits.num_words(); ++w) {
    const std::size_t first = w * kWordBits;
    const std::size_t len = std::min(kWordBits, n - first);
    // A word is shorter than a CCE, so it touches at most two.
    const std::size_t c0 = first / kCceBits;
    const std::size_t c1 = (first + len - 1) / kCceBits;
    const bool e0 = energized(c0);
    const bool e1 = energized(c1);
    if (!e0 && !e1) {
      owed += len;
      continue;
    }
    rng.discard(owed);
    owed = 0;
    std::uint64_t mask = 0;
    for (std::size_t j = 0; j < len; ++j) {
      mask = (mask << 1) | ((rng.next_u64() >> 11) < cutoff ? 1 : 0);
    }
    mask <<= kWordBits - len;
    if (e0 != e1) {
      // The word's first `head` bits (1..63) are c0's, the rest c1's.
      const std::size_t head = c1 * kCceBits - first;
      const std::uint64_t head_mask = ~0ULL << (kWordBits - head);
      mask &= e0 ? head_mask : ~head_mask;
    }
    sf.bits.xor_word(w, mask);
  }
  rng.discard(owed);
}

}  // namespace pbecc::phy
