#include "cap/replay.h"

#include "cap/taps.h"
#include "util/time.h"

namespace pbecc::cap {

void PipelineDigest::on_observations(
    const std::vector<decoder::CellObservation>& obs) {
  std::uint64_t h = obs_digest_;
  for (const auto& o : obs) {
    h = util::fnv1a64_value(o.cell, h);
    h = util::fnv1a64_value(o.sf_index, h);
    // Fold the slot-clock period only when it deviates from the 1 ms
    // subframe: LTE-only streams keep their pre-NR digest values.
    if (o.tick != util::kSubframe) h = util::fnv1a64_value(o.tick, h);
    h = util::fnv1a64_value(o.cell_prbs, h);
    // SubframeSummary member-by-member: whole-struct hashing would fold
    // padding bytes in.
    h = util::fnv1a64_value(o.summary.own_prbs, h);
    h = util::fnv1a64_value(o.summary.own_bits_per_prb, h);
    h = util::fnv1a64_value(o.summary.allocated_prbs, h);
    h = util::fnv1a64_value(o.summary.idle_prbs, h);
    h = util::fnv1a64_value(o.summary.raw_active_users, h);
    h = util::fnv1a64_value(o.summary.data_users, h);
  }
  obs_digest_ = h;
  observations_ += obs.size();
}

void PipelineDigest::on_probe(double cf_bits_sf, double cp_bits_sf,
                              int active_cells) {
  std::uint64_t h = probe_digest_;
  h = util::fnv1a64_value(cf_bits_sf, h);
  h = util::fnv1a64_value(cp_bits_sf, h);
  h = util::fnv1a64_value(active_cells, h);
  probe_digest_ = h;
  ++probes_;
}

namespace {

std::unique_ptr<fault::FaultInjector> make_faults(const TraceHeader& h) {
  if (!h.fault_active) return nullptr;
  return std::make_unique<fault::FaultInjector>(h.fault, h.fault_seed);
}

// The inverse of capture_header: the recording client's configuration.
pbe::PbeClientConfig client_config(const TraceHeader& h,
                                   const fault::FaultInjector* faults) {
  pbe::PbeClientConfig cfg;
  cfg.rnti = h.own_rnti;
  cfg.cells = h.cells;
  cfg.tracker = h.tracker;
  cfg.seed = h.monitor_seed;
  cfg.faults = faults;
  return cfg;
}

}  // namespace

ReplayDriver::ReplayDriver(const TraceHeader& header, PipelineDigest* digest)
    : faults_(make_faults(header)),
      pipeline_(client_config(header, faults_.get()), [this](phy::CellId c) {
        const auto it = cur_inputs_.find(c);
        return it != cur_inputs_.end() ? it->second : pbe::CellInputs{};
      }) {
  pipeline_.taps() = make_client_taps(nullptr, digest);
}

void ReplayDriver::step(const Record& rec) {
  switch (rec.kind) {
    case Record::Kind::kBatch: {
      // Copy-assigned into the entries of the previous batch, whose bit and
      // energy storage is reused.
      sfs_.resize(rec.batch.cells.size());
      for (std::size_t i = 0; i < sfs_.size(); ++i) {
        const CellCapture& c = rec.batch.cells[i];
        cur_inputs_[c.cell] = {c.control_ber, c.bits_per_prb};
        phy::PdcchSubframe& sf = sfs_[i];
        sf.cell_id = c.cell;
        sf.sf_index = c.sf_index;
        sf.tick = c.tick;
        sf.n_cces = c.n_cces;
        sf.coding = c.coding;
        sf.bits = c.bits;
        sf.cce_used = c.cce_used;
      }
      pipeline_.on_pdcch_batch(sfs_);
      ++stats_.batches;
      stats_.cell_subframes += sfs_.size();
      break;
    }
    case Record::Kind::kWindow:
      pipeline_.set_window(rec.window.t, rec.window.window);
      ++stats_.window_sets;
      break;
    case Record::Kind::kProbe:
      pipeline_.probe(rec.probe.t);
      ++stats_.probes;
      break;
  }
}

ReplayStats ReplayDriver::run(TraceReader& reader) {
  Record rec;
  while (reader.next(rec)) step(rec);
  return stats_;
}

}  // namespace pbecc::cap
