// Aggregated background-UE load (DESIGN.md §15).
//
// City-scale scenarios need thousands of background users, but a full
// UeState per user (channel model sampled every subframe, HARQ entities,
// reordering buffer, queue) makes every subframe cost O(UEs). Background
// users only matter to the cell under study through two observable
// effects: they occupy PRBs, and their DCI messages raise the sharer
// count N that PBE-CC's estimator divides by (Eqns 1-2; Falkenberg et
// al.'s DCI-based cell-load estimation makes the same observation from
// the monitor side). This module reproduces exactly those effects with a
// synthetic per-cell session population — Poisson arrivals, exponential
// durations, per-session SINR→MCS and rate demand — costing
// O(active sessions) per subframe with a hard cap, independent of the
// notional user population behind it.
//
// Sessions are granted PRBs from the post-control pool at their fair
// share alongside real backlogged users, and each grant is emitted on the
// PDCCH as a normal DCI, so monitors count these users and see the PRB
// occupancy without any real queue, channel model or HARQ machinery.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/cell_config.h"
#include "phy/mcs.h"
#include "util/rng.h"
#include "util/time.h"

namespace pbecc::mac {

// Hard cap on concurrently active sessions (bounds per-subframe cost).
inline constexpr int kAggregateMaxSessions = 64;

struct AggregateTrafficConfig {
  // Poisson arrival rate of synthetic sessions on this cell.
  double sessions_per_sec = 20.0;
  // Per-session downlink demand, uniform in [rate_lo, rate_hi].
  double rate_lo_bps = 2e6;
  double rate_hi_bps = 12e6;
  std::uint64_t seed = 1;
};

class AggregateTraffic {
 public:
  struct Grant {
    phy::Rnti rnti = 0;
    int n_prbs = 0;
    phy::Mcs mcs{};
    double sinr_db = 0;  // drives the DCI aggregation level
  };

  AggregateTraffic(phy::CellId cell, AggregateTrafficConfig cfg);

  // Advance to subframe `sf` (expire + spawn sessions) and return this
  // subframe's grants, at most `prbs_available` PRBs total. Sessions split
  // the pool max-min fairly with `real_active_users` real contenders. Must
  // be called every subframe (even with 0 PRBs available) so the session
  // process advances deterministically.
  std::vector<Grant> tick(std::int64_t sf, int prbs_available,
                          int real_active_users);

  // Sessions currently alive — the synthetic contribution to the cell's
  // scheduler-visible sharer count N.
  int active_sessions() const { return static_cast<int>(sessions_.size()); }

 private:
  std::int64_t arrival_gap_sf();

  struct Session {
    phy::Rnti rnti = 0;
    std::int64_t end_sf = 0;
    phy::Mcs mcs{};
    double sinr_db = 0;
    int demand_prbs = 1;  // per-subframe PRBs to sustain the drawn rate
  };

  phy::CellId cell_ = 0;
  AggregateTrafficConfig cfg_;
  util::Rng rng_;
  std::vector<Session> sessions_;
  std::int64_t next_arrival_sf_ = 0;
  std::uint32_t rnti_counter_ = 0;
};

}  // namespace pbecc::mac
