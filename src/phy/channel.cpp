#include "phy/channel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pbecc::phy {

namespace {
constexpr double kShadowingSigmaDb = 1.5;
constexpr util::Duration kShadowingCoherence = 200 * util::kMillisecond;
constexpr double kFastFadingSigmaDb = 0.8;
}  // namespace

MobilityTrace MobilityTrace::stationary(double rssi_dbm) {
  return MobilityTrace{{{0, rssi_dbm}}};
}

MobilityTrace::MobilityTrace(std::vector<Waypoint> waypoints)
    : waypoints_(std::move(waypoints)) {
  if (waypoints_.empty()) throw std::invalid_argument("empty mobility trace");
  for (std::size_t i = 1; i < waypoints_.size(); ++i) {
    if (waypoints_[i].time < waypoints_[i - 1].time) {
      throw std::invalid_argument("mobility waypoints must be time-sorted");
    }
  }
}

double MobilityTrace::rssi_at(util::Time t) const {
  if (t <= waypoints_.front().time) return waypoints_.front().rssi_dbm;
  for (std::size_t i = 1; i < waypoints_.size(); ++i) {
    if (t <= waypoints_[i].time) {
      const auto& a = waypoints_[i - 1];
      const auto& b = waypoints_[i];
      if (b.time == a.time) return b.rssi_dbm;
      const double frac = static_cast<double>(t - a.time) /
                          static_cast<double>(b.time - a.time);
      return a.rssi_dbm + frac * (b.rssi_dbm - a.rssi_dbm);
    }
  }
  return waypoints_.back().rssi_dbm;
}

ChannelModel::ChannelModel(ChannelConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed) {}

ChannelState ChannelModel::sample(util::Time t) {
  // Advance the Gauss-Markov shadowing process one step per coherence
  // interval that elapsed.
  if (last_shadow_update_ < 0) {
    shadow_db_ = rng_.normal(0.0, kShadowingSigmaDb);
    last_shadow_update_ = t;
  }
  while (t - last_shadow_update_ >= kShadowingCoherence) {
    constexpr double rho = 0.8;  // AR(1) correlation between intervals
    shadow_db_ = rho * shadow_db_ +
                 std::sqrt(1 - rho * rho) * rng_.normal(0.0, kShadowingSigmaDb);
    last_shadow_update_ += kShadowingCoherence;
  }

  ChannelState s;
  s.rssi_dbm = cfg_.trace.rssi_at(t) + shadow_db_;
  const double fading = rng_.normal(0.0, kFastFadingSigmaDb);
  s.sinr_db = s.rssi_dbm - cfg_.noise_floor_dbm + fading;
  s.cqi = std::max(1, cqi_from_sinr_db(s.sinr_db));
  s.data_ber = residual_ber_from_rssi(s.rssi_dbm);
  s.control_ber = qpsk_ber(s.sinr_db);
  return s;
}

}  // namespace pbecc::phy
