#include "pbe/measurement_pipeline.h"

#include <algorithm>
#include <utility>

namespace pbecc::pbe {

MeasurementPipeline::MeasurementPipeline(const PbeClientConfig& cfg,
                                         InputsFn inputs)
    : inputs_(std::move(inputs)),
      monitor_(
          cfg.rnti, cfg.cells,
          [this](const std::vector<decoder::CellObservation>& obs) {
            if (obs.empty()) return;
            if (taps_.on_observations) taps_.on_observations(obs);
            // End of the latest tick in the fused emission. For LTE-only
            // sets every tick is 1 ms and this is subframe_start(sf_index + 1).
            util::Time now = 0;
            for (const auto& o : obs) {
              now = std::max(now, (o.sf_index + 1) * o.tick);
            }
            estimator_.on_observations(now, obs, [this](phy::CellId c) {
              return inputs_(c).bits_per_prb;
            });
          },
          [this](phy::CellId c) { return inputs_(c).control_ber; },
          cfg.tracker, cfg.seed, cfg.faults) {
  // The connection-start fair-share fallback targets the primary carrier
  // regardless of CellId ordering.
  if (!cfg.cells.empty()) estimator_.set_primary_cell(cfg.cells.front().id);
}

void MeasurementPipeline::on_pdcch_batch(
    const std::vector<phy::PdcchSubframe>& sfs) {
  // Both taps apply only to ticks carrying >=1 monitored cell — the ticks
  // a capture records, so a replay sees the same tick stream.
  std::int64_t master_sf = -1;
  if (taps_.on_batch || taps_.on_batch_end) {
    for (const auto& sf : sfs) {
      if (monitor_.has_cell(sf.cell_id)) {
        // Master 1 ms subframe index, whatever the cell's slot clock.
        master_sf = sf.sf_index * sf.tick / util::kSubframe;
        break;
      }
    }
  }
  if (taps_.on_batch && master_sf >= 0) {
    // Exactly what the pipeline will consume: the monitored cells' clean
    // control regions and each cell's inputs.
    std::vector<phy::PdcchSubframe> kept;
    std::vector<double> bers, bpps;
    for (const auto& sf : sfs) {
      if (!monitor_.has_cell(sf.cell_id)) continue;
      const CellInputs in = inputs_(sf.cell_id);
      kept.push_back(sf);
      bers.push_back(in.control_ber);
      bpps.push_back(in.bits_per_prb);
    }
    taps_.on_batch(kept, bers, bpps);
  }
  monitor_.on_pdcch_batch(sfs);
  if (taps_.on_batch_end && master_sf >= 0) taps_.on_batch_end(master_sf);
}

void MeasurementPipeline::set_window(util::Time now, util::Duration window) {
  estimator_.set_window(window);
  monitor_.set_tracker_window(window);
  if (taps_.on_window_set) taps_.on_window_set(now, window);
}

MeasurementPipeline::Probe MeasurementPipeline::probe(util::Time now) {
  Probe p;
  p.cf_bits_sf = estimator_.fair_share_capacity(now);
  p.cp_bits_sf = estimator_.available_capacity(now);
  p.active_cells = estimator_.active_cell_count(now);
  if (taps_.on_probe) taps_.on_probe(now);
  if (taps_.on_probe_values) {
    taps_.on_probe_values(p.cf_bits_sf, p.cp_bits_sf, p.active_cells);
  }
  return p;
}

}  // namespace pbecc::pbe
