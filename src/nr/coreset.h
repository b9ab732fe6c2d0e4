// NR PDCCH layout: CORESET + search spaces (3GPP 38.213 §10.1, Takeda et
// al.'s NR PDCCH overview).
//
// Where LTE's control region spans the whole carrier for 1-3 symbols, NR
// confines the PDCCH to a configured CORESET — a block of resource blocks
// (a multiple of 6) times 1-3 OFDM symbols, six REGs forming one CCE — and
// a UE monitors only the *candidates* its search-space configuration
// enumerates per aggregation level. A PBE-CC monitor therefore does not
// sweep every aligned start the way the LTE blind decoder does: it walks
// exactly the candidate list below, which both the encode side
// (phy::PdcchBuilder) and the decode side (decoder::BlindDecoder) share.
//
// Header-only on purpose: phy::CellConfig embeds the config structs and
// PdcchBuilder calls visit_candidate_starts() without a phy -> nr link
// edge.
#pragma once

#include <array>
#include <cstdint>

namespace pbecc::nr {

// Aggregation levels an NR search space may use (38.213 Table 10.1-1);
// extends LTE's 1/2/4/8 with AL16 for cell-edge robustness.
inline constexpr int kNrAggregationLevels[] = {1, 2, 4, 8, 16};
inline constexpr int kNumNrAggregationLevels = 5;

// One CORESET: `rbs` resource blocks (multiple of 6) over `symbols` OFDM
// symbols; each CCE is 6 REGs, so the CCE pool is rbs * symbols / 6.
struct CoresetConfig {
  int rbs = 48;
  int symbols = 2;  // 1..3

  int n_cces() const { return rbs * symbols / 6; }

  bool operator==(const CoresetConfig&) const = default;
};

// Candidates monitored per aggregation level {1, 2, 4, 8, 16}. The default
// mirrors a typical UE-specific search-space configuration (Chen et al.,
// "On the Performance of PDCCH in LTE and 5G NR"): dense at low ALs,
// sparse at the robust ones.
struct SearchSpaceConfig {
  std::array<std::uint8_t, 5> candidates = {4, 4, 2, 2, 1};

  int candidates_for(int al) const {
    for (int i = 0; i < kNumNrAggregationLevels; ++i) {
      if (kNrAggregationLevels[i] == al) return candidates[static_cast<std::size_t>(i)];
    }
    return 0;
  }

  bool operator==(const SearchSpaceConfig&) const = default;
};

// Visit the start CCEs of the AL-`al` candidates in a CORESET of `n_cces`
// CCEs in ascending order, stopping at the first for which `visit`
// returns true; returns that start, or -1 when none did. The starts are
// the 38.213 §10.1 hashing with Y_p = 0 and non-interleaved mapping,
// start(m) = L * floor(m * N_cce / (L * M_L)). Every start is a multiple
// of L (the floor's argument is divided *after* scaling by L), which the
// blind decoder's span memo and its word-at-a-time candidate masks rely
// on. Duplicate starts (possible when M_L > N_cce / L) are collapsed; the
// formula is monotone in m, so adjacent-only dedup is exact. PdcchBuilder
// places on, and BlindDecoder searches, exactly the starts this visits,
// and it allocates nothing, so placement can walk it on every call.
template <class Visit>
int visit_candidate_starts(int n_cces, int al, int n_candidates,
                           Visit&& visit) {
  if (al <= 0 || n_candidates <= 0 || al > n_cces) return -1;
  int prev = -1;
  for (int m = 0; m < n_candidates; ++m) {
    const long long scaled = static_cast<long long>(m) * n_cces;
    const int start =
        al * static_cast<int>(scaled / (static_cast<long long>(al) * n_candidates));
    if (start + al > n_cces) break;
    if (start != prev && visit(start)) return start;
    prev = start;
  }
  return -1;
}

}  // namespace pbecc::nr
