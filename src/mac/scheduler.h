// Downlink PRB schedulers.
//
// The paper's fairness results (§6.4) lean on the base station's fairness
// policy: backlogged users share PRBs max-min fairly, and per-user queues
// isolate flows. FairShareScheduler implements exactly that policy;
// ProportionalFair is provided for ablations (§7 notes PBE-CC adapts to
// arbitrary fairness policies).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mac/types.h"

namespace pbecc::mac {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Distribute up to `available_prbs` among `requests`; each user's
  // allocation never exceeds its demand ceil(backlog*8 / bits_per_prb).
  virtual std::vector<SchedAllocation> allocate(
      int available_prbs, const std::vector<SchedRequest>& requests) = 0;

  virtual std::string name() const = 0;
};

// Max-min fair: equal shares, unused entitlement redistributed to users
// that can use it.
class FairShareScheduler final : public Scheduler {
 public:
  std::vector<SchedAllocation> allocate(
      int available_prbs, const std::vector<SchedRequest>& requests) override;
  std::string name() const override { return "fair-share"; }
};

// Proportional fair: PRBs granted in small resource-block groups to the
// user maximizing instantaneous_rate / smoothed_throughput.
class ProportionalFairScheduler final : public Scheduler {
 public:
  std::vector<SchedAllocation> allocate(
      int available_prbs, const std::vector<SchedRequest>& requests) override;
  std::string name() const override { return "proportional-fair"; }

 private:
  std::map<UeId, double> avg_rate_;  // EWMA of served bits per subframe
};

// Demand in whole PRBs for a request.
int demand_prbs(const SchedRequest& r);

std::unique_ptr<Scheduler> make_scheduler(const std::string& name);

}  // namespace pbecc::mac
