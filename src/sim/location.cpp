#include "sim/location.h"

#include <cstdio>

namespace pbecc::sim {

std::string LocationProfile::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "loc%02d %s %s %dCC rssi=%.0fdBm rtt=%lldms",
                index, indoor ? "indoor" : "outdoor", busy ? "busy" : "idle",
                n_cells, rssi_dbm,
                static_cast<long long>(2 * one_way_delay / util::kMillisecond));
  return buf;
}

LocationProfile location(int idx) {
  LocationProfile p;
  p.index = idx;
  p.seed = 0xbeefULL + static_cast<std::uint64_t>(idx) * 7919;

  // Device split: 10 single-cell, 15 two-cell, 15 three-cell (paper: the
  // Redmi 8 in 10 locations, the MIX3 and S8 elsewhere).
  if (idx < 10) {
    p.n_cells = 1;
  } else if (idx < 25) {
    p.n_cells = 2;
  } else {
    p.n_cells = 3;
  }
  // 25 busy links, 15 idle (paper Table 1 averaging sets): make every
  // idx % 8 in {5, 6, 7} idle -> 15 of 40.
  p.busy = (idx % 8) < 5;
  p.indoor = (idx % 2) == 0;

  // Indoor locations sit deeper in the building; a little deterministic
  // per-location spread on top.
  const double spread = static_cast<double>((idx * 37) % 7) - 3.0;  // [-3, +3]
  p.rssi_dbm = (p.indoor ? -97.0 : -91.0) + spread;

  // Server RTT spread (three US AWS regions in the paper): 40-80 ms RTT.
  p.one_way_delay = (20 + (idx * 13) % 21) * util::kMillisecond;
  return p;
}

ScenarioConfig scenario_config_for(const LocationProfile& loc) {
  ScenarioConfig cfg;
  cfg.seed = loc.seed;
  cfg.cells.clear();
  // Primary 10 MHz plus up to two secondaries (10 and 5 MHz) — capacities
  // that land the end-to-end rates in the paper's 20-100 Mbit/s band.
  const double bands[3] = {10.0, 10.0, 5.0};
  const double ctrl = loc.busy ? 0.4 : 0.02;
  for (int i = 0; i < 3; ++i) {
    CellSpec cell{bands[i], ctrl};
    cell.convolutional_pdcch = loc.convolutional_pdcch;
    if (loc.nr_numerology >= 0 && i > 0) {
      // Mixed LTE+NR CA: the primary stays LTE, secondaries become NR at
      // the requested numerology. Bandwidths follow 38.101 channels whose
      // PRB counts sit near the LTE secondaries they replace, keeping the
      // end-to-end rates in the same band as the all-LTE study; the
      // CORESET shrinks with the carrier so it always fits.
      cell.nr = true;
      cell.scs_khz = 15 << loc.nr_numerology;
      switch (loc.nr_numerology) {
        case 0:  // 15 kHz: 10 MHz -> 52 PRBs
          cell.bandwidth_mhz = 10.0;
          cell.coreset_rbs = 48;
          break;
        case 1:  // 30 kHz: 20 MHz -> 51 PRBs
          cell.bandwidth_mhz = 20.0;
          cell.coreset_rbs = 48;
          break;
        default:  // 120 kHz: 50 MHz -> 32 PRBs
          cell.bandwidth_mhz = 50.0;
          cell.coreset_rbs = 30;
          break;
      }
      cell.coreset_symbols = 2;
      // Third carrier doubles as the mini-slot showcase: URLLC-style
      // preemption shortens its HARQ turnaround to 2 slots.
      cell.mini_slot = (i == 2);
    }
    cfg.cells.push_back(cell);
  }
  return cfg;
}

UeSpec ue_spec_for(const LocationProfile& loc) {
  UeSpec ue;
  ue.id = 1;
  ue.cell_indices.clear();
  for (int i = 0; i < loc.n_cells; ++i) ue.cell_indices.push_back(static_cast<std::size_t>(i));
  ue.trace = phy::MobilityTrace::stationary(loc.rssi_dbm);
  if (loc.nr_numerology >= 0 && loc.n_cells >= 2) {
    // Under --fault-profile handover-storm these make the rotation cross
    // the RAT boundary: the UE swings between its full LTE+NR set, an
    // LTE-only set, and (with three carriers) a reduced mixed set, so an
    // LTE<->NR handover happens on every swing.
    ue.serving_sets.push_back({0});
    if (loc.n_cells >= 3) ue.serving_sets.push_back({0, 1});
  }
  return ue;
}

void add_location_background(Scenario& s, const LocationProfile& loc) {
  // Background data users on every cell; busy hours carry a real load,
  // late-night cells only sporadic short sessions.
  for (std::size_t c = 0; c < 3; ++c) {
    BackgroundSpec bg;
    bg.cell_index = c;
    bg.n_users = loc.busy ? 5 : 2;
    bg.sessions_per_sec = loc.busy ? 0.8 : 0.05;
    bg.mean_duration = loc.busy ? 1500 * util::kMillisecond : 500 * util::kMillisecond;
    bg.rate_lo = 1e6;
    bg.rate_hi = loc.busy ? 10e6 : 4e6;
    s.add_background(bg);
  }
}

LocationRunResult run_location(const LocationProfile& loc,
                               const std::string& algo,
                               util::Duration flow_len,
                               const fault::FaultProfile* fault,
                               std::uint64_t fault_seed,
                               const CaptureOptions& capture) {
  ScenarioConfig cfg = scenario_config_for(loc);
  if (fault != nullptr) {
    cfg.fault = *fault;
    cfg.fault_seed = fault_seed;
  }
  cfg.capture = capture;
  Scenario s{std::move(cfg)};
  s.add_ue(ue_spec_for(loc));
  add_location_background(s, loc);

  FlowSpec flow;
  flow.algo = algo;
  flow.ue = 1;
  flow.path.one_way_delay = loc.one_way_delay;
  flow.start = 100 * util::kMillisecond;
  flow.stop = flow.start + flow_len;
  const int f = s.add_flow(flow);

  s.run_until(flow.stop + 500 * util::kMillisecond);
  s.stats(f).finish(flow.stop);

  LocationRunResult r;
  const auto& st = s.stats(f);
  r.avg_tput_mbps = st.avg_tput_mbps();
  r.avg_delay_ms = st.avg_delay_ms();
  r.p95_delay_ms = st.p95_delay_ms();
  r.median_delay_ms = st.median_delay_ms();
  r.ca_triggered = s.bs().ca(1).ever_aggregated();
  if (auto* c = s.pbe_client(f)) {
    r.internet_state_fraction = c->internet_state_fraction();
    r.decode_candidates = c->monitor().total_candidates_tried();
  }
  for (double v : st.window_tputs_mbps().samples()) r.window_tputs.add(v);
  for (double v : st.delays_ms().samples()) r.delays_ms.add(v);
  return r;
}

}  // namespace pbecc::sim
