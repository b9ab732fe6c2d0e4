#include "tel/sampler.h"

#include <string>

namespace pbecc::tel {

PipelineSampler::PipelineSampler(Recorder* rec, util::Duration interval)
    : rec_(rec),
      interval_(interval > 0 ? interval : util::kMillisecond),
      next_t_(interval_) {}

void PipelineSampler::attach(const decoder::Monitor* monitor,
                             const pbe::CapacityEstimator* estimator) {
  monitor_ = monitor;
  estimator_ = estimator;
}

void PipelineSampler::on_batch_end(std::int64_t sf_index) {
  const util::Time t = util::subframe_start(sf_index + 1);
  if (t < next_t_) return;
  sample(t);
  next_t_ = (t / interval_) * interval_ + interval_;
}

void PipelineSampler::sample(util::Time now) {
  if (estimator_ != nullptr) {
    // The aggregate queries mirror the client's ACK-time probes; they only
    // expire window state monotonically, so sampling never perturbs the
    // estimates a run would otherwise produce (replay fidelity depends on
    // this — see cap_test's telemetry digest check).
    rec_->append_f64("est.cf_bits_sf", "bits/sf", now,
                     estimator_->fair_share_capacity(now));
    rec_->append_f64("est.cp_bits_sf", "bits/sf", now,
                     estimator_->available_capacity(now));
    rec_->append_i64("est.active_cells", "cells", now,
                     estimator_->active_cell_count(now));
    for (const auto& c : estimator_->cell_snapshots(now)) {
      const std::string prefix = "est.cell" + std::to_string(c.cell) + ".";
      rec_->append_f64(prefix + "cf_bits_sf", "bits/sf", now, c.cf_bits_sf);
      rec_->append_f64(prefix + "cp_bits_sf", "bits/sf", now, c.cp_bits_sf);
      rec_->append_f64(prefix + "users", "users", now, c.users);
      rec_->append_i64(prefix + "active", "bool", now, c.active ? 1 : 0);
      rec_->append_i64(prefix + "prbs", "prbs", now, c.cell_prbs);
    }
  }
  if (monitor_ != nullptr) {
    rec_->append_f64("decode.success_rate", "ratio", now,
                     monitor_->decode_success_rate(now));
    rec_->append_i64("decode.attempts", "count", now,
                     static_cast<std::int64_t>(monitor_->decode_attempts()));
    rec_->append_i64("decode.failures", "count", now,
                     static_cast<std::int64_t>(monitor_->decode_failures()));
    rec_->append_i64(
        "decode.candidates", "count", now,
        static_cast<std::int64_t>(monitor_->total_candidates_tried()));
  }
}

Sampler::Sampler(SamplerConfig cfg)
    : cfg_(cfg),
      rec_(cfg.max_samples_per_series),
      pipeline_(&rec_, cfg.interval) {}

}  // namespace pbecc::tel
