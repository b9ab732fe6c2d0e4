// Long-horizon soak harness (DESIGN.md §10).
//
// Figure-length scenarios exercise seconds of sim time; the bug class that
// matters for *continuous* bandwidth tracking — incremental-sum drift,
// unbounded state maps, stale per-cell configuration — only shows up after
// millions of subframes of user churn, RNTI reuse, handover storms and
// carrier reconfiguration. Two drivers cover the two stateful halves of the
// system:
//
//   run_pipeline_soak  — synthetic PDCCH -> Monitor (blind decode, fusion,
//                        tracking) -> CapacityEstimator, with background-
//                        user churn off a recycled RNTI pool, serving-set
//                        rotation + storm windows, periodic carrier
//                        reconfiguration, RTprop window jitter, and a
//                        WindowedMean drift lane compared against an exact
//                        mirror every check interval.
//
//   run_mac_soak       — BaseStation + EventLoop with foreground UEs whose
//                        deliveries are checked for strictly increasing
//                        sequence numbers, background UEs churning through
//                        add_ue/remove_ue with id reuse, and handover
//                        storms; per-UE state-map sizes are bound-checked.
//
// Both drivers run with pbecc::check invariants live (deep checks when the
// build has -DPBECC_CHECK=ON) and report violations plus high-water marks.
// Everything is deterministic per seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"

namespace pbecc::tel {
class Sampler;
}  // namespace pbecc::tel

namespace pbecc::sim {

struct PipelineSoakConfig {
  std::int64_t subframes = 2'000'000;
  int n_cells = 3;
  std::uint64_t seed = 7;
  // Background users per cell are drawn from (and returned to) a free list
  // of this many RNTIs, so identifiers are aggressively reused.
  int rnti_pool = 24;
  double arrival_per_sf = 0.02;    // bg-user session arrival probability
  double departure_per_sf = 0.003; // per active bg user, per subframe
  std::int64_t reconfig_period_sf = 250'000;  // carrier reconfiguration
  std::int64_t rotate_period_sf = 10'000;     // normal serving-set rotation
  std::int64_t storm_period_sf = 200'000;     // handover-storm windows...
  std::int64_t storm_len_sf = 2'000;          // ...this long, rotating fast
  std::int64_t window_jitter_period_sf = 5'000;  // RTprop window jitter
  std::int64_t check_period_sf = 1'000;       // bound + drift checks
  // Optional run telemetry (unowned, may be null): the soak's monitor +
  // estimator drive the sampler's pipeline half, plus a check.violations
  // series on the same cadence.
  tel::Sampler* telemetry = nullptr;
};

struct MacSoakConfig {
  std::int64_t subframes = 200'000;
  std::uint64_t seed = 11;
  int n_cells = 4;
  int fg_ues = 2;
  int bg_ue_pool = 10;            // ids recycled through add_ue/remove_ue
  double churn_per_sf = 0.002;    // bg add/remove attempt probability
  std::int64_t storm_period_sf = 25'000;
  std::int64_t storm_len_sf = 1'000;
  std::int64_t check_period_sf = 1'000;
};

struct SoakReport {
  std::int64_t subframes = 0;

  // pbecc::check totals accumulated during the run.
  std::uint64_t invariant_violations = 0;
  std::string violation_digest;  // "name (file:line) xN, ..." — empty if clean

  // Explicit harness checks that failed (bounded maps, config freshness,
  // delivery ordering, drift). First few failures, human-readable.
  std::vector<std::string> failures;

  // High-water marks — the bounded-state evidence.
  std::size_t max_estimator_cells = 0;
  std::size_t max_tracker_users = 0;
  std::size_t max_tracker_history = 0;
  std::size_t max_ues = 0;
  std::size_t max_ue_cells = 0;

  // WindowedMean drift lane: worst |incremental - exact| relative error
  // observed, where exact is a brute-force mirror of the same stream.
  double max_mean_drift = 0.0;

  // Activity counters (so a "passing" run can be judged non-trivial).
  std::uint64_t decode_attempts = 0;
  std::uint64_t churn_events = 0;
  std::uint64_t handovers = 0;
  std::uint64_t reconfigs = 0;
  std::uint64_t delivered_packets = 0;

  bool ok() const { return invariant_violations == 0 && failures.empty(); }
  // Flat JSON object (CI artifact; merged by bench_soak --metrics).
  std::string to_json() const;
};

SoakReport run_pipeline_soak(const PipelineSoakConfig& cfg);
SoakReport run_mac_soak(const MacSoakConfig& cfg);

}  // namespace pbecc::sim
