#include "mac/aggregate_traffic.h"

#include <algorithm>
#include <cmath>

namespace pbecc::mac {

namespace {
// Session lifetime is exponential with this mean.
constexpr util::Duration kMeanDuration = 500 * util::kMillisecond;
// Per-session radio quality: RSSI ~ N(mean, sigma), SINR over the floor.
constexpr double kRssiMeanDbm = -95.0;
constexpr double kRssiSigmaDb = 6.0;
constexpr double kNoiseFloorDbm = -108.0;
}  // namespace

AggregateTraffic::AggregateTraffic(phy::CellId cell, AggregateTrafficConfig cfg)
    : cell_(cell), cfg_(cfg), rng_(cfg.seed) {
  if (cfg_.sessions_per_sec > 0) next_arrival_sf_ = 1 + arrival_gap_sf();
}

std::int64_t AggregateTraffic::arrival_gap_sf() {
  const double gap_s = rng_.exponential(1.0 / cfg_.sessions_per_sec);
  return std::max<std::int64_t>(1, std::llround(gap_s * 1000.0));
}

std::vector<AggregateTraffic::Grant> AggregateTraffic::tick(
    std::int64_t sf, int prbs_available, int real_active_users) {
  std::erase_if(sessions_, [&](const Session& s) { return s.end_sf <= sf; });

  while (cfg_.sessions_per_sec > 0 && next_arrival_sf_ <= sf) {
    if (static_cast<int>(sessions_.size()) < kAggregateMaxSessions) {
      Session s;
      // Synthetic RNTIs live in a high range well clear of the foreground
      // mapping (0x100 + ue) and control-plane grants; the counter rotates
      // so the tracker sees session churn, as on a real cell.
      s.rnti = static_cast<phy::Rnti>(
          0xC000u + ((static_cast<std::uint32_t>(cell_) & 0xFu) << 8) +
          (rnti_counter_++ & 0xFFu));
      const double rssi = kRssiMeanDbm + rng_.normal(0.0, kRssiSigmaDb);
      s.sinr_db = rssi - kNoiseFloorDbm;
      s.mcs = phy::Mcs{std::max(1, phy::cqi_from_sinr_db(s.sinr_db)),
                       s.sinr_db >= 14.0 ? 2 : 1};
      const double rate = rng_.uniform(cfg_.rate_lo_bps, cfg_.rate_hi_bps);
      s.demand_prbs = std::max(
          1, static_cast<int>(std::ceil((rate / 1000.0) / s.mcs.bits_per_prb())));
      const double dur_s = rng_.exponential(util::to_seconds(kMeanDuration));
      s.end_sf = sf + std::max<std::int64_t>(10, std::llround(dur_s * 1000.0));
      sessions_.push_back(s);
    }
    next_arrival_sf_ += arrival_gap_sf();
  }

  std::vector<Grant> grants;
  if (sessions_.empty() || prbs_available <= 0) return grants;
  // Max-min fair split of the pool across synthetic sessions and real
  // contenders; a session never takes more than its demand, so light
  // sessions return their slack to the real scheduler downstream.
  const int sharers =
      static_cast<int>(sessions_.size()) + std::max(real_active_users, 0);
  const int fair = std::max(1, prbs_available / std::max(sharers, 1));
  int left = prbs_available;
  for (const Session& s : sessions_) {
    if (left <= 0) break;
    const int give = std::min({s.demand_prbs, fair, left});
    if (give <= 0) continue;
    grants.push_back(Grant{s.rnti, give, s.mcs, s.sinr_db});
    left -= give;
  }
  return grants;
}

}  // namespace pbecc::mac
