// Analysis over telemetry recordings: the paper-style accuracy statistics
// (estimate-vs-truth error distributions, Figs 5/6), capacity-step
// tracking lag, degradation dwell times, anomaly detection, and the
// machine-checkable two-run diff behind `telemetry_tool diff`.
//
// Series conventions consumed here (producers: tel::PipelineSampler and
// sim::Scenario's telemetry event — see DESIGN.md §12 for the full table):
//   est.cell<id>.cf_bits_sf     estimator fair share per cell (Eqns 1-2)
//   truth.cell<id>.fair_bits_sf scheduler ground truth for the same cell
//   pbe.degradation_state       0=PRECISE 1=DEGRADED 2=FALLBACK
//   decode.success_rate, check.violations, ...
// Estimate/truth pairs are joined on equal sim-clock timestamps — the
// cadence rules exist precisely so this join is exact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tel/series.h"
#include "util/time.h"

namespace pbecc::tel {

struct ErrorStats {
  std::size_t n = 0;  // joined samples after warmup
  double p50_abs = 0, p95_abs = 0;  // bits/sf
  double p50_rel = 0, p95_rel = 0, mean_rel = 0, max_rel = 0;
};

struct StepLagStats {
  std::size_t steps = 0;      // capacity steps detected in the truth series
  std::size_t tracked = 0;    // converged within the search horizon
  double mean_lag_ms = 0, max_lag_ms = 0;  // over the tracked steps
};

struct CellAccuracy {
  std::string cell;  // "<id>"
  ErrorStats err;
  StepLagStats lag;
};

struct DwellStats {
  // Sim-seconds spent in each degradation state, plus transition count.
  double precise_s = 0, degraded_s = 0, fallback_s = 0;
  std::uint64_t transitions = 0;
};

struct Anomaly {
  std::string cell;
  util::Time start = 0, end = 0;
  double peak_rel_err = 0;
  std::size_t samples = 0;
};

struct Summary {
  std::uint32_t schema_version = 0;
  util::Time t_begin = 0, t_end = 0;
  std::size_t n_series = 0, n_samples = 0;
  std::vector<CellAccuracy> cells;
  bool has_dwell = false;
  DwellStats dwell;
  double final_decode_success = -1;  // -1 when the series is absent
  double candidates_per_sec = -1;
  std::int64_t violations = -1;
  std::vector<Anomaly> anomalies;
};

struct AnalyzeConfig {
  // Samples before this are startup transient (ramp, empty windows) and
  // excluded from the error distributions.
  util::Duration warmup = util::kSecond;
};

Summary summarize(const Recorder& rec, const AnalyzeConfig& cfg = {});
std::string render_summary_text(const Summary& s);

// ---- diff ----------------------------------------------------------------

struct DiffThresholds {
  // A shared series regresses when |mean(b) - mean(a)| exceeds this
  // fraction of max(|mean(a)|, floor) or the sample counts disagree by
  // more than `count_rel`.
  double mean_rel = 0.01;
  double count_rel = 0.0;
  double mean_floor = 1e-9;
};

struct SeriesDelta {
  std::string name;
  std::size_t n_a = 0, n_b = 0;
  double mean_a = 0, mean_b = 0;
  double rel_delta = 0;  // vs max(|mean_a|, floor)
  bool flagged = false;
  std::string note;  // "mean" / "count" / "missing-in-b" / "new-in-b"
};

struct DiffResult {
  std::vector<SeriesDelta> deltas;  // every series of either run, sorted
  std::size_t compared = 0, flagged = 0;
  bool schema_mismatch = false;
  bool regression() const { return flagged > 0 || schema_mismatch; }
};

DiffResult diff(const Recorder& a, const Recorder& b,
                const DiffThresholds& thresholds = {});
std::string render_diff_text(const DiffResult& d);

}  // namespace pbecc::tel
