#include "mac/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/profile.h"

namespace pbecc::mac {

namespace {
// Proportional fair: EWMA weight of each subframe's served bits, and the
// resource-block group size grants are made in.
constexpr double kEwmaAlpha = 0.05;
constexpr int kRbgSize = 4;
}  // namespace

int demand_prbs(const SchedRequest& r) {
  if (r.backlog_bytes <= 0) return 0;
  if (r.bits_per_prb <= 0) return 0;
  const double bits = static_cast<double>(r.backlog_bytes) * 8.0;
  return static_cast<int>(std::ceil(bits / r.bits_per_prb));
}

std::vector<SchedAllocation> FairShareScheduler::allocate(
    int available_prbs, const std::vector<SchedRequest>& requests) {
  PBECC_PROF_SCOPE("scheduler_allocate");
  struct Entry {
    std::size_t idx;
    int demand;
    double weight;
    int granted = 0;
  };
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const int d = demand_prbs(requests[i]);
    if (d > 0) entries.push_back({i, d, std::max(requests[i].weight, 1e-6)});
  }

  int remaining = available_prbs;
  // Weighted water-filling: repeatedly split the residue across
  // unsatisfied users in proportion to their weights; users whose demand
  // is below their share are capped and their surplus recycled. With all
  // weights equal this is plain max-min fairness.
  bool progress = true;
  while (remaining > 0 && progress) {
    double weight_sum = 0;
    for (const auto& e : entries) {
      if (e.granted < e.demand) weight_sum += e.weight;
    }
    if (weight_sum <= 0) break;
    progress = false;
    bool any_full_share = false;
    const int pool = remaining;  // snapshot: shares computed per round
    for (auto& e : entries) {
      if (e.granted >= e.demand) continue;
      const int share =
          static_cast<int>(static_cast<double>(pool) * e.weight / weight_sum);
      const int give = std::min(e.demand - e.granted, share);
      if (give > 0) {
        e.granted += give;
        remaining -= give;
        progress = true;
        any_full_share = true;
      }
    }
    if (!any_full_share) {
      // Residue smaller than the weight spread: hand out single PRBs to
      // the heaviest unsatisfied users first.
      std::vector<Entry*> order;
      for (auto& e : entries) {
        if (e.granted < e.demand) order.push_back(&e);
      }
      std::sort(order.begin(), order.end(), [](const Entry* a, const Entry* b) {
        if (a->weight != b->weight) return a->weight > b->weight;
        return a->idx < b->idx;
      });
      for (auto* e : order) {
        if (remaining == 0) break;
        ++e->granted;
        --remaining;
        progress = true;
      }
      break;
    }
  }

  std::vector<SchedAllocation> out;
  for (const auto& e : entries) {
    if (e.granted > 0) out.push_back({requests[e.idx].ue, e.granted});
  }
  return out;
}

std::vector<SchedAllocation> ProportionalFairScheduler::allocate(
    int available_prbs, const std::vector<SchedRequest>& requests) {
  PBECC_PROF_SCOPE("scheduler_allocate");
  struct Entry {
    const SchedRequest* req;
    int demand;
    int granted = 0;
  };
  std::vector<Entry> entries;
  for (const auto& r : requests) {
    const int d = demand_prbs(r);
    if (d > 0) entries.push_back({&r, d});
  }

  int remaining = available_prbs;
  while (remaining > 0) {
    Entry* best = nullptr;
    double best_metric = -1.0;
    for (auto& e : entries) {
      if (e.granted >= e.demand) continue;
      const double avg = std::max(avg_rate_[e.req->ue], 1.0);
      const double metric = e.req->bits_per_prb / avg;
      if (metric > best_metric) {
        best_metric = metric;
        best = &e;
      }
    }
    if (best == nullptr) break;
    const int give = std::min({kRbgSize, remaining, best->demand - best->granted});
    best->granted += give;
    remaining -= give;
    // Update the EWMA immediately so repeated grants within one subframe
    // rotate across users.
    avg_rate_[best->req->ue] +=
        kEwmaAlpha * (static_cast<double>(give) * best->req->bits_per_prb -
                  avg_rate_[best->req->ue]);
  }
  // Users that got nothing still age their average toward zero.
  for (const auto& r : requests) {
    if (avg_rate_.contains(r.ue)) {
      bool granted = false;
      for (const auto& e : entries) {
        if (e.req == &r && e.granted > 0) { granted = true; break; }
      }
      if (!granted) avg_rate_[r.ue] *= (1.0 - kEwmaAlpha);
    }
  }

  std::vector<SchedAllocation> out;
  for (const auto& e : entries) {
    if (e.granted > 0) out.push_back({e.req->ue, e.granted});
  }
  return out;
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  if (name == "fair-share") return std::make_unique<FairShareScheduler>();
  if (name == "proportional-fair") return std::make_unique<ProportionalFairScheduler>();
  throw std::invalid_argument("unknown scheduler: " + name);
}

}  // namespace pbecc::mac
