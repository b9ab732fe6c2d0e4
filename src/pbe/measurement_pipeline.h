// The endpoint measurement pipeline (paper §4–§5, Fig 10a): per-cell blind
// decoders, message fusion and user tracking (decoder::Monitor), feeding
// the Eqns 1–3 capacity estimator. The live PBE client, the trace replay
// (cap::ReplayDriver) and the pipeline soak each hold one, so every
// decision about how the monitor feeds the estimator is made here once:
//   * the primary cell is the first configured cell;
//   * an estimate is stamped at the end of the latest tick in its fused
//     emission, max over cells of (sf_index + 1) * tick;
//   * a window update resizes the estimator and every tracker;
//   * an ACK probe queries Cf, Cp and the active-cell count at one instant,
//     in that order (the queries expire window state);
//   * each cell's control BER and own-CSI bits/PRB come from one source.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "decoder/monitor.h"
#include "fault/fault.h"
#include "pbe/capacity_estimator.h"
#include "phy/pdcch.h"
#include "util/time.h"

namespace pbecc::pbe {

struct PbeClientConfig {
  phy::Rnti rnti = 0;
  std::vector<phy::CellConfig> cells;  // the UE's aggregated cells
  decoder::UserTrackerConfig tracker{};
  std::uint64_t seed = 21;
  // Optional fault injector threaded down into the decoder monitor
  // (unowned; must outlive the client). nullptr = fault-free.
  const fault::FaultInjector* faults = nullptr;
};

// Optional observation hooks into the measurement pipeline, used by
// pbecc::cap to record traces and fidelity digests and by pbecc::tel to
// sample telemetry. Plain std::function bundles keep this module free of
// any capture dependency; unset hooks cost one branch. The hooks fire in
// pipeline order: on_batch before the monitor decodes, on_observations as
// fused observations reach the estimator, on_window_set when an RTprop
// update resizes the averaging windows, on_probe/on_probe_values after
// each ACK's estimator queries.
struct ClientTaps {
  // One PDCCH tick, already filtered to monitored cells; control_ber[i]
  // and bits_per_prb[i] are the pipeline inputs applied to sfs[i].
  std::function<void(const std::vector<phy::PdcchSubframe>&,
                     const std::vector<double>& control_ber,
                     const std::vector<double>& bits_per_prb)>
      on_batch;
  std::function<void(util::Time, util::Duration window)> on_window_set;
  std::function<void(util::Time)> on_probe;
  std::function<void(const std::vector<decoder::CellObservation>&)>
      on_observations;
  std::function<void(double cf_bits_sf, double cp_bits_sf, int active_cells)>
      on_probe_values;
  // Fires after the monitor has decoded a tick that contained at least
  // one monitored cell — the ticks on_batch sees and a capture records —
  // with the tick's master 1 ms subframe index (tel::PipelineSampler keys
  // its cadence off this).
  std::function<void(std::int64_t sf_index)> on_batch_end;
};

// One cell's pipeline inputs for the current tick.
struct CellInputs {
  double control_ber = 0;   // noise the monitor adds to its copy of the region
  double bits_per_prb = 0;  // own-CSI Rw hint for the estimator
};

class MeasurementPipeline {
 public:
  using InputsFn = std::function<CellInputs(phy::CellId)>;

  // `inputs` is asked for a monitored cell's inputs whenever the monitor or
  // the estimator reads them: the live client asks its modem, the replay
  // returns the latest recorded values.
  MeasurementPipeline(const PbeClientConfig& cfg, InputsFn inputs);
  // The monitor's callbacks hold `this`.
  MeasurementPipeline(const MeasurementPipeline&) = delete;
  MeasurementPipeline& operator=(const MeasurementPipeline&) = delete;

  // One tick's control regions from every cell the base station runs
  // (BaseStation::add_pdcch_batch_observer); foreign cells are ignored.
  void on_pdcch_batch(const std::vector<phy::PdcchSubframe>& sfs);

  // RTprop update at `now`: the averaging window of the estimator and of
  // every user tracker.
  void set_window(util::Time now, util::Duration window);

  // The estimator's answers at an ACK, in bits per subframe.
  struct Probe {
    double cf_bits_sf = 0;
    double cp_bits_sf = 0;
    int active_cells = 0;
  };
  Probe probe(util::Time now);

  // Carrier reconfiguration of a monitored cell (Monitor::reconfigure_cell).
  void reconfigure_cell(const phy::CellConfig& cell) {
    monitor_.reconfigure_cell(cell);
  }

  // Install before traffic starts; fields may be set one at a time, so two
  // instruments can share the bundle.
  ClientTaps& taps() { return taps_; }

  const decoder::Monitor& monitor() const { return monitor_; }
  const CapacityEstimator& estimator() const { return estimator_; }

 private:
  InputsFn inputs_;
  ClientTaps taps_;
  CapacityEstimator estimator_;
  decoder::Monitor monitor_;
};

}  // namespace pbecc::pbe
