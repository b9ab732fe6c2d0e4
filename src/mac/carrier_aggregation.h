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

// Queue depth that signals the active set is insufficient, once it has
// stood kCaActivationDelay: the next aggregated cell activates.
inline constexpr std::int64_t kCaActivationQueueBytes = 40 * 1024;
inline constexpr util::Duration kCaActivationDelay = 60 * util::kMillisecond;

class CaManager {
 public:
  explicit CaManager(std::vector<phy::CellId> aggregated_cells);

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

  util::Time queue_high_since_ = util::kNever;
  util::Time utilization_high_since_ = util::kNever;
  util::Time secondary_idle_since_ = util::kNever;
  util::Time last_activation_ = -(1LL << 60);
  double secondary_prb_ewma_ = 0.0;
  double utilization_ewma_ = 0.0;
  bool ever_aggregated_ = false;
};

}  // namespace pbecc::mac
