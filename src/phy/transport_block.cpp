#include "phy/transport_block.h"

#include <stdexcept>

namespace pbecc::phy {

double transport_block_bits(int n_prbs, const Mcs& mcs) {
  if (n_prbs < 0) throw std::invalid_argument("negative PRB count");
  return static_cast<double>(n_prbs) * mcs.bits_per_prb();
}

}  // namespace pbecc::phy
