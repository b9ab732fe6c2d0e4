// Replay-driven measurement pipeline (DESIGN.md §11).
//
// ReplayDriver rebuilds, purely from a trace header, the
// pbe::MeasurementPipeline the recording client ran — per-cell blind
// decoders, message fusion, user trackers and the capacity estimator —
// then streams the recorded ticks, window updates and probes into it. No
// MAC simulator, base station, or event loop is instantiated: the decode
// path runs as fast as the CPU allows. ReplayDriver copies each batch into
// one control-region vector that it keeps from batch to batch, so a
// steady-state batch reuses its storage.
//
// PipelineDigest is the fidelity instrument: both the live client and the
// replay fold the same pipeline outputs through pbe::ClientTaps — every
// CellObservation field, and the estimator's Cf/Cp/active-cell answers at
// each recorded probe point — into order-sensitive FNV-1a digests, so
// record→replay equality is one 64-bit compare per stream.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cap/format.h"
#include "cap/trace_reader.h"
#include "decoder/monitor.h"
#include "fault/fault.h"
#include "pbe/measurement_pipeline.h"
#include "util/digest.h"

namespace pbecc::cap {

// Order-sensitive digest over the pipeline's two output streams.
class PipelineDigest {
 public:
  void on_observations(const std::vector<decoder::CellObservation>& obs);
  void on_probe(double cf_bits_sf, double cp_bits_sf, int active_cells);

  std::uint64_t observation_digest() const { return obs_digest_; }
  std::uint64_t probe_digest() const { return probe_digest_; }
  std::uint64_t observations() const { return observations_; }
  std::uint64_t probes() const { return probes_; }

  bool operator==(const PipelineDigest&) const = default;

 private:
  std::uint64_t obs_digest_ = util::kFnv1aOffset;
  std::uint64_t probe_digest_ = util::kFnv1aOffset;
  std::uint64_t observations_ = 0;
  std::uint64_t probes_ = 0;
};

struct ReplayStats {
  std::uint64_t batches = 0;
  std::uint64_t cell_subframes = 0;
  std::uint64_t window_sets = 0;
  std::uint64_t probes = 0;
};

class ReplayDriver {
 public:
  // `digest` (optional, unowned) receives the pipeline outputs exactly as
  // a live client's capture digest does.
  explicit ReplayDriver(const TraceHeader& header,
                        PipelineDigest* digest = nullptr);

  // Apply one record: batches decode, window records resize the averaging
  // windows, probes query the estimator.
  void step(const Record& rec);

  // Drain a reader to end-of-trace or error (check reader.ok()).
  ReplayStats run(TraceReader& reader);

  // The pipeline's pbe::ClientTaps::on_batch_end, beside the digest's
  // taps: fires after each batch record's decode with the record's
  // subframe index. tel::PipelineSampler plugs in here so a replay exports
  // the same est.* / decode.* series the live run recorded.
  void set_batch_end_hook(std::function<void(std::int64_t)> hook) {
    pipeline_.taps().on_batch_end = std::move(hook);
  }

  const ReplayStats& stats() const { return stats_; }
  const decoder::Monitor& monitor() const { return pipeline_.monitor(); }
  const pbe::CapacityEstimator& estimator() const {
    return pipeline_.estimator();
  }

 private:
  std::unique_ptr<fault::FaultInjector> faults_;
  // Latest recorded per-cell inputs, read by the pipeline during the
  // current batch.
  std::map<phy::CellId, pbe::CellInputs> cur_inputs_;
  pbe::MeasurementPipeline pipeline_;
  // The current batch's control regions; entries are reused across batches.
  std::vector<phy::PdcchSubframe> sfs_;
  ReplayStats stats_{};
};

}  // namespace pbecc::cap
