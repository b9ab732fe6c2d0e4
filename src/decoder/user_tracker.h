// Per-cell user activity tracking from decoded control messages
// (paper §4.1, §4.2.1, Fig 5, Fig 7).
//
// From each subframe's DCI list the tracker maintains, over a sliding
// window, per-RNTI activity records: how many subframes the user was
// scheduled (Ta) and its average allocated PRBs (Pave). It answers the
// three questions PBE-CC's capacity estimator asks:
//   * N   — how many *data* users share the cell (control-plane users
//           filtered with the paper's Ta > 1, Pave > 4 thresholds);
//   * Pa  — PRBs allocated to *me* this subframe;
//   * Pidle — PRBs allocated to nobody this subframe (every identified
//           user counts here, filtered or not — paper end of §4.2.1).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "phy/cell_config.h"
#include "phy/dci.h"
#include "util/time.h"

namespace pbecc::decoder {

struct UserTrackerConfig {
  // Sliding window over which activity statistics are kept.
  util::Duration window = 40 * util::kMillisecond;
  // Control-traffic filter thresholds (paper: Ta > 1 subframe AND
  // Pave > 4 PRBs).
  int min_active_subframes = 2;   // Ta > 1
  double min_average_prbs = 4.0;  // Pave > 4 (strict)

  bool operator==(const UserTrackerConfig&) const = default;
};

struct UserActivity {
  phy::Rnti rnti = 0;
  int active_subframes = 0;  // Ta within the window
  double average_prbs = 0;   // Pave within the window
  std::int64_t last_seen_sf = 0;
};

class UserTracker {
 public:
  // `tick` is the duration of one scheduling tick on the tracked cell's
  // clock (1 ms for LTE, the slot length for NR): the sliding window is
  // time-based, so an NR cell at 120 kHz keeps 8x the tick count of an LTE
  // cell for the same window. Ta thresholds count ticks.
  UserTracker(int cell_prbs, UserTrackerConfig cfg = {},
              util::Duration tick = util::kSubframe)
      : cell_prbs_(cell_prbs), cfg_(cfg), tick_(tick > 0 ? tick : util::kSubframe) {}

  struct SubframeSummary {
    int own_prbs = 0;          // Pa for `own_rnti`
    double own_bits_per_prb = 0;  // Rw from our own DCI (0 if unscheduled)
    int allocated_prbs = 0;    // sum over all identified users
    int idle_prbs = 0;         // Pcell - allocated (floored at 0)
    int raw_active_users = 0;  // users seen in window, unfiltered
    int data_users = 0;        // N after the control-traffic filter

    bool operator==(const SubframeSummary&) const = default;
  };

  // Ingest one subframe's downlink DCIs; returns this subframe's summary.
  SubframeSummary on_subframe(std::int64_t sf_index,
                              const std::vector<phy::Dci>& messages,
                              phy::Rnti own_rnti);

  // Number of data users after filtering, over the current window.
  int data_users(phy::Rnti own_rnti) const;
  int raw_users() const;

  // Snapshot of all per-user records (Fig 7 statistics).
  std::vector<UserActivity> activity() const;

  void set_window(util::Duration w) { cfg_.window = w; }
  // Carrier reconfiguration changed the cell's PRB count; idle-PRB
  // computation uses the new total from the next subframe on.
  void set_cell_prbs(int cell_prbs) { cell_prbs_ = cell_prbs; }
  int cell_prbs() const { return cell_prbs_; }
  // History length (bounded by window subframes × messages per subframe);
  // exposed for soak bound checks.
  std::size_t history_size() const { return history_.size(); }
  std::size_t tracked_users() const { return users_.size(); }

 private:
  void expire(std::int64_t current_sf);
  bool passes_filter(const UserActivity& a, phy::Rnti own_rnti,
                     phy::Rnti candidate) const;

  struct Observation {
    std::int64_t sf;
    phy::Rnti rnti;
    int prbs;
  };

  int cell_prbs_;
  UserTrackerConfig cfg_;
  util::Duration tick_ = util::kSubframe;
  std::deque<Observation> history_;
  std::map<phy::Rnti, UserActivity> users_;
  // Deep-check pacing: the full O(users x history) re-derivation only runs
  // every few hundred subframes so -DPBECC_CHECK soaks stay tractable.
  std::uint64_t deep_tick_ = 0;
};

}  // namespace pbecc::decoder
