// Figure 16: delay and throughput under mobility.
//
// The paper's trajectory: 13 s at RSSI -85 dBm, a 13 s walk down to
// -105 dBm, a faster (4 s) return, then 10 s parked — 40 s total, run at
// night on an idle cell. Every algorithm drives the same walk.
#include "bench/bench_common.h"
#include "sim/algorithms.h"
#include "sim/scenario.h"

using namespace pbecc;

namespace {

phy::MobilityTrace paper_walk() {
  using util::kSecond;
  return phy::MobilityTrace({{0, -85},
                             {13 * kSecond, -85},
                             {26 * kSecond, -105},
                             {30 * kSecond, -85},
                             {40 * kSecond, -85}});
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, {"--threads"});
  par::ThreadPool pool(args.threads());
  bench::header("Figure 16: 40 s mobility walk (-85 -> -105 -> -85 dBm), idle cell");

  struct Row {
    double tput = 0, p50 = 0, p95 = 0, p90tput = 0;
  };
  const auto algos = sim::all_algorithms();
  const auto rows = pool.parallel_map(algos.size(), [&](std::size_t j) {
    sim::ScenarioConfig cfg;
    cfg.seed = 101;
    cfg.cells = {{10.0, 0.02}, {10.0, 0.02}};
    sim::Scenario s{cfg};
    sim::UeSpec ue;
    ue.cell_indices = {0, 1};
    ue.trace = paper_walk();
    s.add_ue(ue);
    sim::FlowSpec fs;
    fs.algo = algos[j];
    fs.start = 100 * util::kMillisecond;
    fs.stop = 40 * util::kSecond;
    const int f = s.add_flow(fs);
    s.run_until(fs.stop);
    s.stats(f).finish(fs.stop);
    return Row{s.stats(f).avg_tput_mbps(), s.stats(f).median_delay_ms(),
               s.stats(f).p95_delay_ms(),
               s.stats(f).window_tputs_mbps().percentile(90)};
  });

  std::printf("\n  %-8s %10s %10s %10s %10s\n", "algo", "tput(Mb)",
              "p50-d(ms)", "p95-d(ms)", "p90tput");
  for (std::size_t j = 0; j < algos.size(); ++j) {
    std::printf("  %-8s %10.1f %10.1f %10.1f %10.1f\n", algos[j].c_str(),
                rows[j].tput, rows[j].p50, rows[j].p95, rows[j].p90tput);
  }
  std::printf("\n  Paper shape: PBE-CC keeps high average throughput with a low\n"
              "  95th-percentile delay (64 ms in the paper); BBR matches the\n"
              "  throughput at ~2.5x the delay; CUBIC and Verus lose throughput\n"
              "  AND blow up delay; the conservative four are barely affected\n"
              "  by mobility because they never use the capacity.\n");
  return 0;
}
