// Transport-block sizing and the per-subframe downlink grant.
//
// One transport block (TB) carries the data scheduled for one user in one
// subframe; its size is n_prbs * bits_per_prb(MCS). TBs fail as a whole
// with probability 1-(1-p)^L (paper Fig 6b) and are then HARQ-retransmitted
// 8 subframes later (paper Fig 3).
#pragma once

#include "phy/mcs.h"

namespace pbecc::phy {

// Usable TB payload bits for an allocation.
double transport_block_bits(int n_prbs, const Mcs& mcs);

}  // namespace pbecc::phy
