#include "pbe/rate_translator.h"

#include <algorithm>
#include <cmath>

#include "phy/error_model.h"

namespace pbecc::pbe {

double RateTranslator::to_physical(double ct, double p) const {
  if (ct <= 0) return 0;
  const double tber = phy::tb_error_rate(p, ct);
  return (ct + ct * tber) / (1.0 - kProtocolOverhead);
}

double RateTranslator::solve(double cp, double p) const {
  if (cp <= 0) return 0;
  // Find Ct with to_physical(Ct) == Cp; monotone increasing in Ct.
  double lo = 0, hi = cp;  // Ct can never exceed Cp
  for (int i = 0; i < 50; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (to_physical(mid, p) < cp) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double RateTranslator::to_transport(double cp, double p) {
  if (cp <= 0) return 0;
  // Quantize: Cp to 1 kbit/subframe buckets, p to a 1/40-decade log bucket
  // (fine enough that the worst-case TBER error stays under ~1%).
  const auto cp_q = static_cast<std::uint64_t>(cp / 1000.0);
  const double logp = std::log10(std::clamp(p, 1e-9, 1e-2));
  const auto p_q = static_cast<std::uint64_t>((logp + 9.0) * 40.0);
  const std::uint64_t key = cp_q * 1024 + p_q;

  if (const auto it = lut_.find(key); it != lut_.end()) {
    // Scale the cached bucket-center answer to the exact Cp (the mapping
    // is near-linear within one bucket).
    const double bucket_cp = (static_cast<double>(cp_q) + 0.5) * 1000.0;
    return it->second * (cp / bucket_cp);
  }
  const double bucket_cp = (static_cast<double>(cp_q) + 0.5) * 1000.0;
  const double bucket_p =
      std::pow(10.0, (static_cast<double>(p_q) + 0.5) / 40.0 - 9.0);
  const double ct = solve(bucket_cp, bucket_p);
  lut_[key] = ct;
  return ct * (cp / bucket_cp);
}

}  // namespace pbecc::pbe
