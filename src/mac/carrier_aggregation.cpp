#include "mac/carrier_aggregation.h"

#include <stdexcept>

namespace pbecc::mac {

namespace {
// The paper's footnote 1: buffering is *not* a prerequisite — consuming a
// large fraction of the serving cells' bandwidth also activates the next
// carrier. Fraction of serving PRBs this user must hold (smoothed)...
constexpr double kActivationUtilization = 0.65;
// ...for this long.
constexpr util::Duration kUtilizationDelay = 120 * util::kMillisecond;
// Cool-down between consecutive activations (lets the new cell take load
// before judging whether yet another is needed).
constexpr util::Duration kActivationCooldown = 100 * util::kMillisecond;
// Deactivate the newest secondary when the user's mean allocation on it
// stays below kDeactivationPrbThreshold PRBs for kDeactivationDelay.
constexpr double kDeactivationPrbThreshold = 2.0;
constexpr util::Duration kDeactivationDelay = 500 * util::kMillisecond;
}  // namespace

CaManager::CaManager(std::vector<phy::CellId> aggregated_cells)
    : all_(std::move(aggregated_cells)) {
  if (all_.empty()) throw std::invalid_argument("UE needs at least a primary cell");
  active_.push_back(all_.front());
}

CaManager::Update CaManager::on_subframe(util::Time now,
                                         std::int64_t queue_bytes,
                                         int newest_secondary_prbs,
                                         int serving_prbs,
                                         int serving_capacity_prbs) {
  Update u;

  // Smoothed share of the serving cells' bandwidth this user consumes.
  const double util_now =
      serving_capacity_prbs > 0
          ? static_cast<double>(serving_prbs) / serving_capacity_prbs
          : 0.0;
  constexpr double alpha = 0.05;  // ~20 ms smoothing
  utilization_ewma_ += alpha * (util_now - utilization_ewma_);

  // --- Activation: either a sustained deep queue, or the user holding a
  // large fraction of the serving bandwidth for a while (footnote 1 of the
  // paper: buffering is not a prerequisite).
  if (active_.size() < all_.size()) {
    const bool queue_high = queue_bytes >= kCaActivationQueueBytes;
    if (queue_high) {
      if (queue_high_since_ == util::kNever) queue_high_since_ = now;
    } else {
      queue_high_since_ = util::kNever;
    }
    const bool util_high = utilization_ewma_ >= kActivationUtilization;
    if (util_high) {
      if (utilization_high_since_ == util::kNever) utilization_high_since_ = now;
    } else {
      utilization_high_since_ = util::kNever;
    }

    const bool queue_trigger = queue_high_since_ != util::kNever &&
                               now - queue_high_since_ >= kCaActivationDelay;
    const bool util_trigger =
        utilization_high_since_ != util::kNever &&
        now - utilization_high_since_ >= kUtilizationDelay;
    if ((queue_trigger || util_trigger) &&
        now - last_activation_ >= kActivationCooldown) {
      active_.push_back(all_[active_.size()]);
      last_activation_ = now;
      queue_high_since_ = util::kNever;
      utilization_high_since_ = util::kNever;
      utilization_ewma_ = 0.0;  // denominator changed; restart smoothing
      secondary_idle_since_ = util::kNever;
      secondary_prb_ewma_ = kDeactivationPrbThreshold * 4;  // grace
      ever_aggregated_ = true;
      u.activated = true;
      u.cell = active_.back();
      return u;
    }
  }

  // --- Deactivation: newest secondary unused for a while.
  if (active_.size() > 1) {
    constexpr double alpha = 0.02;  // ~50 ms smoothing at 1 kHz updates
    secondary_prb_ewma_ +=
        alpha * (static_cast<double>(newest_secondary_prbs) - secondary_prb_ewma_);
    if (secondary_prb_ewma_ < kDeactivationPrbThreshold) {
      if (secondary_idle_since_ == util::kNever) secondary_idle_since_ = now;
      if (now - secondary_idle_since_ >= kDeactivationDelay) {
        u.deactivated = true;
        u.cell = active_.back();
        active_.pop_back();
        secondary_idle_since_ = util::kNever;
        secondary_prb_ewma_ = 0.0;
      }
    } else {
      secondary_idle_since_ = util::kNever;
    }
  }
  return u;
}

}  // namespace pbecc::mac
