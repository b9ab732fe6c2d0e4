// Static configuration of one LTE/NR component carrier ("cell").
//
// The paper evaluates on commercial 10 MHz and 20 MHz FDD LTE cells;
// bandwidth determines the number of physical resource blocks (PRBs)
// available per subframe and the size of the control region. NR cells
// (rat == Rat::kNr) additionally carry a scalable numerology — the slot
// shrinks to 1 ms / 2^mu while the PRB count grows with the wider
// bandwidth parts — and confine their PDCCH to a CORESET + search-space
// layout instead of LTE's full-width control region.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "nr/coreset.h"
#include "nr/numerology.h"
#include "util/time.h"

namespace pbecc::phy {

using CellId = std::uint32_t;
// Radio Network Temporary Identifier: per-user address within one cell.
using Rnti = std::uint16_t;

// RNTIs 0x0001..0xFFF3 are valid C-RNTIs (3GPP 36.321); outside that range
// lie broadcast/paging identities that the user tracker must ignore.
inline constexpr Rnti kMinCRnti = 0x003D;
inline constexpr Rnti kMaxCRnti = 0xFFF3;

// PRBs per downlink bandwidth (3GPP 36.101 Table 5.6-1).
constexpr int prbs_for_bandwidth_mhz(double mhz) {
  if (mhz == 1.4) return 6;
  if (mhz == 3.0) return 15;
  if (mhz == 5.0) return 25;
  if (mhz == 10.0) return 50;
  if (mhz == 15.0) return 75;
  if (mhz == 20.0) return 100;
  throw std::invalid_argument("unsupported LTE bandwidth");
}

// Radio access technology of a component carrier.
enum class Rat : std::uint8_t { kLte = 0, kNr = 1 };

// Channel coding used on the control channel. The srsLTE stack the paper
// builds on uses the 36.212 convolutional code; repetition is the
// default here because it is an order of magnitude cheaper to blind-decode
// in large simulations while giving the same aggregation-level-dependent
// robustness (see bench_ablation / phy tests for the comparison). kPolar
// marks the NR PDCCH, whose 38.212 code is polar; real polar (CA-SCL)
// decoding is out of scope, so kPolar cells are encoded and blind-decoded
// with the convolutional code as a stand-in — bit-for-bit the same as
// kConvolutional. The tag stays so traces record the RAT's coding.
enum class PdcchCoding : std::uint8_t { kRepetition, kConvolutional, kPolar };

struct CellConfig {
  CellId id = 0;
  double bandwidth_mhz = 20.0;
  // Carrier frequency, informational (the paper's shared primary cell sits
  // at 1.94 GHz).
  double carrier_ghz = 1.94;
  PdcchCoding pdcch_coding = PdcchCoding::kRepetition;

  // --- NR extension (ignored while rat == Rat::kLte) ---
  Rat rat = Rat::kLte;
  nr::Scs scs = nr::Scs::k30kHz;
  nr::CoresetConfig coreset{};
  nr::SearchSpaceConfig search_space{};
  // Schedule HARQ retransmissions on a mini-slot cadence (2 slots instead
  // of the 8-slot HARQ RTT): retransmissions preempt new data almost
  // immediately, the 38.214 URLLC-style option.
  bool mini_slot_preemption = false;

  int n_prbs() const {
    return rat == Rat::kLte ? prbs_for_bandwidth_mhz(bandwidth_mhz)
                            : nr::nr_prbs_for(scs, bandwidth_mhz);
  }

  // Control channel elements available for DCI messages per tick. LTE:
  // roughly one CCE per 1.33 PRBs with a 3-symbol control region (a simple
  // proportional rule yielding 21/42/84 CCEs for 5/10/20 MHz). NR: the
  // configured CORESET's CCE pool.
  int n_cces() const {
    return rat == Rat::kLte ? (n_prbs() * 84) / 100 : coreset.n_cces();
  }

  // Scheduling ticks (slots) per 1 ms subframe: 1 for LTE, 2^mu for NR.
  int slots_per_subframe() const {
    return rat == Rat::kLte ? 1 : nr::slots_per_subframe(scs);
  }

  // Duration of one scheduling tick (the cell's slot clock).
  util::Duration tick() const {
    return util::kSubframe / slots_per_subframe();
  }

  bool operator==(const CellConfig&) const = default;
};

}  // namespace pbecc::phy
