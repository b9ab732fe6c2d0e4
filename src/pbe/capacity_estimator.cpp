#include "pbe/capacity_estimator.h"

#include <algorithm>

#include "check/check.h"
#include "obs/obs.h"

namespace pbecc::pbe {

namespace {
// A cell counts as active for this user if it granted us PRBs within the
// last quarter second (a deactivated secondary stops granting; a lightly
// loaded one may legitimately skip many subframes, so the window must be
// generous or the active set flaps).
constexpr util::Duration kCellActiveTimeout = 250 * util::kMillisecond;

// A cell unmentioned by any observation for this long is gone (handover
// completed, carrier deactivated): drop its state so churn through many
// cells cannot grow `cells_` monotonically. Much longer than the active
// timeout so a briefly silent serving cell keeps its window history.
constexpr util::Duration kCellEvictTimeout = 5 * util::kSecond;
}  // namespace

CapacityEstimator::CapacityEstimator(util::Duration initial_window)
    : window_(initial_window) {
  obs_.updates = &obs::counter("pbe.estimator.updates");
  obs_.cp_bits_sf = &obs::gauge("pbe.estimator.cp_bits_sf");
  obs_.cf_bits_sf = &obs::gauge("pbe.estimator.cf_bits_sf");
  obs_.active_cells = &obs::gauge("pbe.estimator.active_cells");
  obs_.max_users = &obs::gauge("pbe.estimator.max_users");
}

void CapacityEstimator::set_window(util::Duration rtprop) {
  window_ = std::clamp<util::Duration>(rtprop, 20 * util::kMillisecond,
                                       400 * util::kMillisecond);
  for (auto& [id, c] : cells_) {
    c.rw.set_window(window_);
    c.pa.set_window(window_);
    c.pidle.set_window(window_);
    c.users.set_window(window_);
  }
}

void CapacityEstimator::set_primary_cell(phy::CellId cell) {
  has_primary_ = true;
  primary_cell_ = cell;
}

int CapacityEstimator::cell_prbs(phy::CellId cell) const {
  const auto it = cells_.find(cell);
  return it == cells_.end() ? -1 : it->second.cell_prbs;
}

void CapacityEstimator::on_observations(
    util::Time now, const std::vector<decoder::CellObservation>& obs,
    const RwHint& own_rw_hint) {
  last_update_ = now;
  for (const auto& o : obs) {
    auto it = cells_.find(o.cell);
    if (it == cells_.end()) {
      it = cells_.emplace(o.cell, CellState{window_}).first;
      if (!has_primary_) {
        // First cell ever seen is the default primary; clients that know
        // their carrier configuration override via set_primary_cell.
        has_primary_ = true;
        primary_cell_ = o.cell;
      }
    }
    CellState& c = it->second;
    const auto& s = o.summary;
    // Refresh from every observation: carrier reconfiguration changes a
    // cell's PRB count mid-connection, and Eqns 1-2 divide the *current*
    // Pcell among users — a stale value skews fair share for the rest of
    // the run.
    PBECC_INVARIANT(o.cell_prbs > 0, "estimator_cell_prbs_positive");
    c.cell_prbs = o.cell_prbs;
    c.tick = o.tick > 0 ? o.tick : util::kSubframe;
    c.scale = static_cast<double>(util::kSubframe) / static_cast<double>(c.tick);
    c.last_seen = now;

    // Rw: from our own DCI when scheduled, else from our own CSI.
    const double rw = s.own_bits_per_prb > 0
                          ? s.own_bits_per_prb
                          : (own_rw_hint ? own_rw_hint(o.cell) : 0.0);
    if (rw > 0) c.rw.update(now, rw);
    PBECC_INVARIANT(s.own_prbs >= 0 && s.idle_prbs >= 0 &&
                        s.own_prbs + s.idle_prbs <= o.cell_prbs,
                    "estimator_prb_accounting");
    c.pa.update(now, s.own_prbs);
    c.pidle.update(now, s.idle_prbs);
    c.users.update(now, std::max(1, s.data_users));
    if (s.own_prbs > 0) c.last_own_grant = now;
  }
  // Evict cells no observation has mentioned for a long time, so handover
  // churn across a city's worth of cells cannot grow the map monotonically.
  std::erase_if(cells_, [&](const auto& kv) {
    return now - kv.second.last_seen > kCellEvictTimeout;
  });
  if constexpr (check::kDeep) {
    for (const auto& [id, c] : cells_) {
      // Window sizes are bounded by the (clamped) averaging window: each
      // deque holds at most one sample per tick of the cell's clock.
      const std::size_t cap =
          static_cast<std::size_t>(window_ / c.tick) + 2;
      PBECC_DEEP_INVARIANT(c.pa.size() <= cap && c.pidle.size() <= cap &&
                               c.users.size() <= cap && c.rw.size() <= cap,
                           "estimator_window_bounded");
    }
  }
  obs_.updates->inc();
  // The readouts cost a loop over the cells, so only pay for them when
  // someone is actually collecting (a live trace, or a metrics run —
  // which enables profiling — where the gauges end up in the report).
  if (obs::tracing_active() || obs::profiling_enabled()) {
    const double cp = available_capacity(now);
    const double cf = fair_share_capacity(now);
    const int cells = active_cell_count(now);
    obs_.cp_bits_sf->set(cp);
    obs_.cf_bits_sf->set(cf);
    obs_.active_cells->set(cells);
    obs_.max_users->set(max_users());
    obs::emit(obs::EventKind::kCapacityUpdate, now, 0, 0, cells, cp, cf);
  }
}

double CapacityEstimator::available_capacity(util::Time now) const {
  double bits = 0;
  for (auto& [id, c] : cells_) {
    if (c.last_own_grant < 0 || now - c.last_own_grant > kCellActiveTimeout) {
      continue;  // we are not being served on this cell right now
    }
    const double rw = c.rw.get(now, 0.0);
    const double pa = c.pa.get(now, 0.0);
    const double pidle = c.pidle.get(now, 0.0);
    const double n = std::max(c.users.get(now, 1.0), 1.0);
    // Eqn 3; the per-tick means are scaled to bits per subframe (scale is
    // exactly 1.0 for LTE cells).
    bits += c.scale * (rw * (pa + pidle / n));
  }
  return bits;
}

double CapacityEstimator::fair_share_capacity(util::Time now) const {
  double bits = 0;
  bool any_active = false;
  for (auto& [id, c] : cells_) {
    const bool active =
        c.last_own_grant >= 0 && now - c.last_own_grant <= kCellActiveTimeout;
    if (!active) continue;
    any_active = true;
    const double rw = c.rw.get(now, 0.0);
    const double n = std::max(c.users.get(now, 1.0), 1.0);
    // Eqns 1-2, scaled from per-tick to per-subframe (1.0 for LTE).
    bits += c.scale * (rw * (static_cast<double>(c.cell_prbs) / n));
  }
  if (!any_active) {
    // Connection start: no grant yet anywhere — use the primary cell's full
    // fair share so the ramp has a deterministic target (never map order:
    // cells_.begin() depends on which CellId happens to sort first).
    const auto it = has_primary_ ? cells_.find(primary_cell_) : cells_.end();
    if (it != cells_.end()) {
      CellState& c = it->second;
      const double rw = c.rw.get(now, 0.0);
      const double n = std::max(c.users.get(now, 1.0), 1.0);
      bits += c.scale * (rw * (static_cast<double>(c.cell_prbs) / n));
    }
  }
  return bits;
}

int CapacityEstimator::active_cell_count(util::Time now) const {
  int n = 0;
  for (auto& [id, c] : cells_) {
    if (c.last_own_grant >= 0 && now - c.last_own_grant <= kCellActiveTimeout) ++n;
  }
  return std::max(n, 1);
}

std::vector<CapacityEstimator::CellSnapshot>
CapacityEstimator::cell_snapshots(util::Time now) const {
  std::vector<CellSnapshot> out;
  out.reserve(cells_.size());
  for (auto& [id, c] : cells_) {
    CellSnapshot s;
    s.cell = id;
    s.active =
        c.last_own_grant >= 0 && now - c.last_own_grant <= kCellActiveTimeout;
    s.cell_prbs = c.cell_prbs;
    s.rw = c.rw.get(now, 0.0);
    s.users = std::max(c.users.get(now, 1.0), 1.0);
    s.pa = c.pa.get(now, 0.0);
    s.pidle = c.pidle.get(now, 0.0);
    s.cf_bits_sf = c.scale * (s.rw * (static_cast<double>(s.cell_prbs) / s.users));
    s.cp_bits_sf = s.active ? c.scale * (s.rw * (s.pa + s.pidle / s.users)) : 0.0;
    out.push_back(s);
  }
  return out;
}

double CapacityEstimator::max_users() const {
  double m = 1.0;
  for (auto& [id, c] : cells_) {
    m = std::max(m, c.users.get(last_update_, 1.0));
  }
  return m;
}

}  // namespace pbecc::pbe
