// Location profiles for the paper's stationary-link study (§6.3.1):
// 40 locations covering every combination of indoor/outdoor, busy/idle
// cells and one/two/three aggregated carriers (the Redmi 8 / MIX3 / S8
// device split), plus the AWS-like server RTT spread.
#pragma once

#include <cstdint>
#include <string>

#include "sim/scenario.h"

namespace pbecc::sim {

struct LocationProfile {
  int index = 0;
  bool indoor = true;
  bool busy = true;
  int n_cells = 1;  // aggregated carriers the device supports (1..3)
  double rssi_dbm = -95.0;
  util::Duration one_way_delay = 25 * util::kMillisecond;
  std::uint64_t seed = 0;
  // Encode every cell's PDCCH with the 36.212 convolutional code instead
  // of repetition coding (run_experiment --conv-pdcch). Off in the paper's
  // 40-location study; the Viterbi replay corpus (README "Decode
  // throughput") records with it on so bench_replay exercises the
  // Viterbi decoder.
  bool convolutional_pdcch = false;
  // 5G NR secondary carriers (run_experiment --nr): numerology mu for the
  // secondary cells, or -1 for an all-LTE location (the paper's study).
  // mu 0/1/3 -> 15/30/120 kHz SCS. The primary carrier always stays LTE,
  // so enabling this exercises mixed LTE+NR carrier aggregation: PDCCH
  // monitoring over heterogeneous search spaces and capacity fusion over
  // heterogeneous slot clocks (DESIGN.md section 16).
  int nr_numerology = -1;

  std::string describe() const;
};

inline constexpr int kNumLocations = 40;

// Deterministic profile for location `idx` in [0, kNumLocations).
// The mix matches the paper: 25 busy links, 15 idle; 10 single-cell
// (Redmi 8), 15 two-cell (MIX3), 15 three-cell (S8); indoor/outdoor split.
LocationProfile location(int idx);

// Build the scenario for a location: cells, background load, control
// traffic, and the single UE (id 1) with the profile's carrier count.
// The caller then adds flows for the algorithm(s) under test.
ScenarioConfig scenario_config_for(const LocationProfile& loc);
UeSpec ue_spec_for(const LocationProfile& loc);
void add_location_background(Scenario& s, const LocationProfile& loc);

// Convenience: run one 20-second flow of `algo` at this location and
// return its stats (throughput Mbit/s, delays ms).
struct LocationRunResult {
  double avg_tput_mbps = 0;
  double avg_delay_ms = 0;
  double p95_delay_ms = 0;
  double median_delay_ms = 0;
  bool ca_triggered = false;
  double internet_state_fraction = 0;  // PBE only
  util::SampleSet window_tputs;
  util::SampleSet delays_ms;
  // Bench instrumentation (bench/bench_common.h JSON records):
  double wall_ms = 0;                    // real time spent simulating
  std::uint64_t sim_cell_subframes = 0;  // simulated subframes x cells
  std::uint64_t decode_candidates = 0;   // blind-decode attempts (PBE only)
};
// Optional pbecc::cap / pbecc::tel hookup for a run: record the PBE
// pipeline into `writer`, digest its outputs, and/or sample run telemetry
// into `telemetry` (all unowned, all may be null).
struct CaptureOptions {
  cap::TraceWriter* writer = nullptr;
  cap::PipelineDigest* digest = nullptr;
  tel::Sampler* telemetry = nullptr;
};

// `fault` (optional) runs the flow under a deterministic chaos schedule
// seeded with `fault_seed` (see fault::FaultProfile / --fault-profile).
LocationRunResult run_location(const LocationProfile& loc, const std::string& algo,
                               util::Duration flow_len = 20 * util::kSecond,
                               const fault::FaultProfile* fault = nullptr,
                               std::uint64_t fault_seed = 1,
                               const CaptureOptions& capture = {});

}  // namespace pbecc::sim
