// The complete endpoint measurement module: per-cell blind decoders (fed
// with the monitor's own noisy copy of each control region), message
// fusion, and per-cell user trackers — the full pipeline of paper Fig 10a,
// ending in the per-subframe cell observations the capacity estimator
// consumes.
//
// Robustness: an optional fault::FaultInjector models real decoder
// pathologies (PDCCH blackouts, SINR collapses, CRC-aliased false
// positives, frozen subframe clocks). The monitor accounts every decode
// attempt and exposes a sliding-window decode-success rate — one of the
// inputs to the PBE client's feedback confidence score.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "decoder/blind_decoder.h"
#include "decoder/message_fusion.h"
#include "decoder/user_tracker.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "phy/pdcch.h"
#include "util/rng.h"

namespace pbecc::decoder {

// One cell's digest for one tick (subframe / NR slot), after decode +
// fusion + tracking. `sf_index` counts ticks on the cell's own clock; the
// tick's start instant is sf_index * tick.
struct CellObservation {
  phy::CellId cell = 0;
  std::int64_t sf_index = 0;
  util::Duration tick = util::kSubframe;
  int cell_prbs = 0;
  UserTracker::SubframeSummary summary{};
};

class Monitor {
 public:
  using Output = std::function<void(const std::vector<CellObservation>&)>;

  // `control_ber` is evaluated per subframe per cell to noise the monitor's
  // copy of the control region (0 = clean).
  using ControlBerFn = std::function<double(phy::CellId)>;

  // `faults` (optional, unowned, may outlive-checked by caller) injects
  // deterministic decode faults; nullptr = no fault path at all.
  Monitor(phy::Rnti own_rnti, std::vector<phy::CellConfig> cells,
          Output out, ControlBerFn ber_fn = {},
          UserTrackerConfig tracker_cfg = {}, std::uint64_t seed = 99,
          const fault::FaultInjector* faults = nullptr);

  // Feed a (clean) control region broadcast from the base station; the
  // monitor applies its own reception noise before decoding. Cells the
  // monitor is not configured for are ignored (it only runs decoders for
  // the aggregated cells of its own UE, as in the paper's prototype).
  void on_pdcch(const phy::PdcchSubframe& sf);

  // Batched form: all cells' control regions for one tick at once, in cell
  // order. Runs on the calling thread in three phases, each in the given
  // order: (1) fault/noise preparation (every rng_ draw happens here),
  // (2) side-effect-free decode_compute, (3) decode_apply + fusion (stats,
  // counters, trace events, downstream callbacks).
  // Byte-identical to calling on_pdcch per subframe in the same order.
  void on_pdcch_batch(const std::vector<phy::PdcchSubframe>& sfs);

  // RTprop changes adjust the activity window (paper averages over the
  // most recent RTprop of subframes).
  void set_tracker_window(util::Duration w);

  // Carrier reconfiguration: the network changed a monitored cell's
  // parameters (PRB count / control region geometry) mid-run. Pushes the
  // new config into the cell's blind decoder (clearing its span memo),
  // user tracker and the fusion-callback PRB table so downstream capacity
  // estimates see the new Pcell immediately. Unknown cells are ignored.
  void reconfigure_cell(const phy::CellConfig& cell);

  // Fraction of the cell-subframes expected over the recent accounting
  // window (~200 ms) that decoded successfully. 1.0 before any PDCCH has
  // been seen. Stalls lower the rate too: the denominator is wall time, so
  // a frozen monitor that processes nothing decays exactly like one whose
  // decodes all fail.
  double decode_success_rate(util::Time now) const;
  std::uint64_t decode_attempts() const { return attempts_; }
  std::uint64_t decode_failures() const { return failures_; }
  // Blind-decode candidates tried across all cell decoders.
  std::uint64_t total_candidates_tried() const;
  // Viterbi diagnostics summed across all cell decoders: Viterbi runs
  // (DecodeStats::lane_batches) and candidate attempts retired by the
  // exact-safe early abort. Both zero on repetition-coded cells.
  std::uint64_t total_lane_batches() const;
  std::uint64_t total_early_aborts() const;

  const UserTracker& tracker(phy::CellId cell) const { return *trackers_.at(cell); }
  const BlindDecoder& decoder(phy::CellId cell) const { return *decoders_.at(cell); }
  bool has_cell(phy::CellId cell) const { return decoders_.contains(cell); }

 private:
  void note_fault_edge(bool& state, bool now_active, fault::FaultType type,
                       phy::CellId cell, util::Time t, std::int64_t detail);

  phy::Rnti own_rnti_;
  Output out_;
  ControlBerFn ber_fn_;
  const fault::FaultInjector* faults_ = nullptr;
  std::map<phy::CellId, std::unique_ptr<BlindDecoder>> decoders_;
  std::map<phy::CellId, std::unique_ptr<UserTracker>> trackers_;
  std::map<phy::CellId, int> cell_prbs_;
  std::map<phy::CellId, util::Duration> cell_tick_;
  // Per-cell activity gauges (`decoder.active_users.cell<N>` etc.),
  // registered once at construction.
  struct CellGauges {
    obs::Gauge* data_users;
    obs::Gauge* raw_users;
  };
  std::map<phy::CellId, CellGauges> gauges_;
  obs::Counter* fused_subframes_ = nullptr;
  std::unique_ptr<MessageFusion> fusion_;
  util::Rng rng_;

  // Decode accounting: timestamps of successful cell-subframe decodes in
  // the recent window. Failures are implicit — the expected count comes
  // from the wall-clock span, which also charges stall time.
  util::Duration success_window_ = 200 * util::kMillisecond;
  mutable std::deque<util::Time> success_times_;
  util::Time first_pdcch_ = -1;
  std::uint64_t attempts_ = 0;
  std::uint64_t failures_ = 0;
  // Edge state for fault trace events (emit on onset, not per subframe).
  bool in_stall_ = false;
  std::map<phy::CellId, bool> in_blackout_;
  std::map<phy::CellId, bool> in_collapse_;
};

}  // namespace pbecc::decoder
