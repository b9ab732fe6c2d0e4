// Wireless channel model for one user <-> cell link.
//
// Produces the time-varying quantities the rest of the stack consumes:
// RSSI (driven by a mobility trace), log-normal shadowing with a coherence
// time, fast-fading SINR wiggle, the CQI the user would report, and the
// residual data/control bit error rates. Deterministic per seed.
#pragma once

#include <vector>

#include "phy/error_model.h"
#include "phy/mcs.h"
#include "util/rng.h"
#include "util/time.h"

namespace pbecc::phy {

// Piecewise-linear RSSI-vs-time trajectory; models user mobility the way
// the paper's §6.3.2 experiment moves a phone between -85 and -105 dBm
// locations. Time beyond the last waypoint holds the last value.
class MobilityTrace {
 public:
  struct Waypoint {
    util::Time time;
    double rssi_dbm;
  };

  // Stationary user at a fixed RSSI.
  static MobilityTrace stationary(double rssi_dbm);
  // Explicit waypoints (must be time-sorted).
  explicit MobilityTrace(std::vector<Waypoint> waypoints);

  double rssi_at(util::Time t) const;

 private:
  std::vector<Waypoint> waypoints_;
};

struct ChannelState {
  double rssi_dbm = -90.0;
  double sinr_db = 15.0;
  int cqi = 10;
  double data_ber = 1e-6;     // residual BER for transport blocks
  double control_ber = 0.0;   // raw QPSK BER for PDCCH bits
};

struct ChannelConfig {
  MobilityTrace trace = MobilityTrace::stationary(-90.0);
  // Effective noise+interference floor; busier cells see more interference.
  double noise_floor_dbm = -110.0;
  std::uint64_t seed = 1;
};

class ChannelModel {
 public:
  explicit ChannelModel(ChannelConfig cfg);

  // Channel state for the subframe containing `t`. Shadowing evolves as a
  // first-order autoregressive (Gauss-Markov) process across coherence
  // intervals; fast fading is redrawn each subframe. Must be called with
  // non-decreasing `t` (the simulator's clock only moves forward).
  ChannelState sample(util::Time t);

 private:
  ChannelConfig cfg_;
  util::Rng rng_;
  util::Time last_shadow_update_ = -1;
  double shadow_db_ = 0.0;
};

}  // namespace pbecc::phy
