// Cadenced snapshotting of the PBE pipeline into a Recorder.
//
// Two halves, split by what drives them:
//
//  * PipelineSampler is driven by the measurement pipeline itself — the
//    client's on_batch_end tap (live) or ReplayDriver's batch-end hook
//    (replay). Because both fire at the same subframe boundaries with the
//    same monitor/estimator state, a recording and its replay export
//    byte-identical `est.*` / `decode.*` series; that identity is the
//    acceptance gate for simulator-free postmortems.
//
//  * Everything only the simulator knows — ground-truth cell capacity,
//    flow cwnd/pacing/inflight, base-station queue depth, invariant
//    violation counts — is appended by the scenario's own sampling event
//    (sim::Scenario wires it; see scenario.cpp) into the same Recorder,
//    on the same sim-clock cadence. tel stays free of sim/mac/net
//    dependencies that way.
//
// Cadence rule (DESIGN.md §12): samples are taken on the simulation
// clock, at t = k * interval. The pipeline half samples at the first
// batch end at or after each boundary, so on the dense batch streams the
// base station produces (one batch per subframe), live, replayed, and
// loop-driven samples all land on identical timestamps and join exactly.
#pragma once

#include <cstdint>

#include "decoder/monitor.h"
#include "pbe/capacity_estimator.h"
#include "tel/series.h"
#include "util/time.h"

namespace pbecc::tel {

struct SamplerConfig {
  util::Duration interval = 10 * util::kMillisecond;
};

class PipelineSampler {
 public:
  PipelineSampler(Recorder* rec, util::Duration interval);

  // Both unowned; must outlive the sampler. Either may be null (the
  // corresponding series are simply not recorded).
  void attach(const decoder::Monitor* monitor,
              const pbe::CapacityEstimator* estimator);

  // Wire to pbe::ClientTaps::on_batch_end / cap::ReplayDriver's batch-end
  // hook. `sf_index` is the subframe the batch covered; the sample carries
  // the estimator's `now` convention (start of the following subframe).
  void on_batch_end(std::int64_t sf_index);

  // Take one sample immediately, stamped `now` (cadence state unchanged).
  void sample(util::Time now);

 private:
  Recorder* rec_;
  const decoder::Monitor* monitor_ = nullptr;
  const pbe::CapacityEstimator* estimator_ = nullptr;
  util::Duration interval_;
  util::Time next_t_;
};

// Owns the Recorder and the pipeline half for one run.
class Sampler {
 public:
  explicit Sampler(SamplerConfig cfg = {});

  Recorder& recorder() { return rec_; }
  const Recorder& recorder() const { return rec_; }
  PipelineSampler& pipeline() { return pipeline_; }
  util::Duration interval() const { return cfg_.interval; }

 private:
  SamplerConfig cfg_;
  Recorder rec_;
  PipelineSampler pipeline_;
};

}  // namespace pbecc::tel
