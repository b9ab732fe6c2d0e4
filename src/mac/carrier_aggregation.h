// Carrier aggregation manager (paper §3, Fig 2).
//
// Each user has an ordered list of aggregated cells; only the primary is
// always active. The network activates the next cell when the user's
// queue shows it needs more than the active set can deliver ("the cellular
// network activates another cell for a user as long as such a user is
// consuming a large fraction of the bandwidth of the serving cell(s)"),
// and deactivates the newest secondary after it sits unused for a while.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/cell_config.h"
#include "util/time.h"

namespace pbecc::mac {

struct CaConfig {
  // Queue depth that signals the active set is insufficient.
  std::int64_t activation_queue_bytes = 40 * 1024;
  // The paper's footnote 1: buffering is *not* a prerequisite — consuming
  // a large fraction of the serving cells' bandwidth also activates the
  // next carrier. Fraction of serving PRBs this user must hold...
  double activation_utilization = 0.65;
  // ...for this long (smoothed).
  util::Duration utilization_delay = 120 * util::kMillisecond;
  // How long the queue must stay above the threshold before activating.
  util::Duration activation_delay = 60 * util::kMillisecond;
  // Deactivate the newest secondary when the user's mean allocation on it
  // stays below kDeactivationPrbThreshold PRBs for this long.
  util::Duration deactivation_delay = 500 * util::kMillisecond;
  // Cool-down between consecutive activations (lets the new cell take
  // load before judging whether yet another is needed).
  util::Duration activation_cooldown = 100 * util::kMillisecond;
};

class CaManager {
 public:
  CaManager(std::vector<phy::CellId> aggregated_cells, CaConfig cfg);

  // Active prefix of the aggregated list (primary first).
  const std::vector<phy::CellId>& active_cells() const { return active_; }
  std::size_t num_active() const { return active_.size(); }

  struct Update {
    bool activated = false;
    bool deactivated = false;
    phy::CellId cell = 0;
  };

  // Called once per subframe with the user's current queue depth, the PRBs
  // the newest active secondary allocated to this user this subframe, the
  // user's total PRBs across serving cells this subframe, and the serving
  // cells' combined PRB capacity.
  Update on_subframe(util::Time now, std::int64_t queue_bytes,
                     int newest_secondary_prbs, int serving_prbs,
                     int serving_capacity_prbs);

  // True if a secondary was ever activated (Fig 15 statistic).
  bool ever_aggregated() const { return ever_aggregated_; }

  // Carry the Fig-15 history across handover/migration: replacing the
  // manager for a new cell set must not erase the fact that CA ever
  // triggered for this user.
  void restore_history(bool ever_aggregated) {
    ever_aggregated_ |= ever_aggregated;
  }

 private:
  std::vector<phy::CellId> all_;
  std::vector<phy::CellId> active_;
  CaConfig cfg_;

  util::Time queue_high_since_ = util::kNever;
  util::Time utilization_high_since_ = util::kNever;
  util::Time secondary_idle_since_ = util::kNever;
  util::Time last_activation_ = -(1LL << 60);
  double secondary_prb_ewma_ = 0.0;
  double utilization_ewma_ = 0.0;
  bool ever_aggregated_ = false;
};

}  // namespace pbecc::mac
