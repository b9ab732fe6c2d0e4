// Cross-layer bit rate translation (paper §4.2.1, Eqn 5 and Fig 6).
//
// The physical-layer capacity Cp exceeds the transport-layer goodput Ct by
// the retransmission overhead (a function of the transport-block error
// rate, itself a function of Ct through the TB size L) and a constant
// protocol overhead gamma:
//     Cp = Ct + Ct * (1 - (1-p)^L) + gamma * Cp,    L = Ct  [bits/subframe]
// Given Cp and the channel's residual bit error rate p, Ct is recovered by
// bisection (the left side is strictly increasing in Ct); as in the paper,
// results are cached in a lookup table keyed by quantized (Cp, p).
#pragma once

#include <cstdint>
#include <unordered_map>

namespace pbecc::pbe {

inline constexpr double kProtocolOverhead = 0.068;  // gamma = 6.8%

class RateTranslator {
 public:
  // Transport goodput (bits/subframe) for a physical capacity Cp
  // (bits/subframe) at residual bit error rate p.
  double to_transport(double cp_bits_per_sf, double p);

  // Inverse direction (exact, no solve needed): physical capacity consumed
  // by a transport goodput Ct. Used by tests and the Fig 6a bench.
  double to_physical(double ct_bits_per_sf, double p) const;

  std::size_t lut_size() const { return lut_.size(); }

 private:
  double solve(double cp, double p) const;

  // Key: quantized Cp (1 kbit buckets) and p (log-spaced bucket).
  std::unordered_map<std::uint64_t, double> lut_;
};

}  // namespace pbecc::pbe
