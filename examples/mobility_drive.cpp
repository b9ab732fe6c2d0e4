// Drive-test example: run PBE-CC (or any algorithm) along a custom
// signal-strength trajectory and watch it track the capacity.
//
//   ./build/examples/mobility_drive [algo] [start_dbm] [end_dbm] [seconds]
//   e.g. ./build/examples/mobility_drive pbe -85 -107 20
//
// Signal strengths are decimals in -140..-30 dBm and seconds a whole
// number in 1..86400; anything else exits 2.
#include <cstdio>
#include <string>

#include "sim/scenario.h"
#include "util/cli.h"

using namespace pbecc;

int main(int argc, char** argv) {
  const std::string algo = argc > 1 ? argv[1] : "pbe";
  const double start_dbm =
      argc > 2 ? util::decimal_arg("start_dbm", argv[2], -140.0, -30.0)
               : -85.0;
  const double end_dbm =
      argc > 3 ? util::decimal_arg("end_dbm", argv[3], -140.0, -30.0) : -105.0;
  const int seconds =
      argc > 4 ? static_cast<int>(
                     util::whole_number_arg("seconds", argv[4], 1, 86400))
               : 20;

  sim::ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.cells = {{10.0, 0.02}, {10.0, 0.02}};
  sim::Scenario s{cfg};

  sim::UeSpec ue;
  ue.cell_indices = {0, 1};
  // Linear walk from start to end signal strength over the whole run.
  ue.trace = phy::MobilityTrace(
      {{0, start_dbm}, {seconds * util::kSecond, end_dbm}});
  s.add_ue(ue);

  sim::FlowSpec fs;
  fs.algo = algo;
  fs.start = 100 * util::kMillisecond;
  fs.stop = seconds * util::kSecond;
  const int f = s.add_flow(fs);

  std::printf("%s from %.0f dBm to %.0f dBm over %d s\n\n", algo.c_str(),
              start_dbm, end_dbm, seconds);
  std::printf("t(s)  rssi(dBm)  cqi  tput-1s(Mb/s)  inflight(KB)  carriers\n");
  std::uint64_t last_bytes = 0;
  for (int sec = 1; sec <= seconds; ++sec) {
    s.run_until(sec * util::kSecond);
    const auto ch = s.bs().channel_state(1, 1);
    const auto bytes = s.stats(f).bytes();
    std::printf("%4d  %9.1f  %3d  %13.1f  %12.1f  %zu\n", sec, ch.rssi_dbm,
                ch.cqi, static_cast<double>(bytes - last_bytes) * 8.0 / 1e6,
                s.sender(f).bytes_in_flight() / 1024.0,
                s.bs().ca(1).num_active());
    last_bytes = bytes;
  }
  s.stats(f).finish(fs.stop);
  std::printf("\ntotals: %.1f Mbit/s avg, delay p50 %.1f ms / p95 %.1f ms\n",
              s.stats(f).avg_tput_mbps(), s.stats(f).median_delay_ms(),
              s.stats(f).p95_delay_ms());
  return 0;
}
