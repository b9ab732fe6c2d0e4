// Figure 18: controlled competition.
//
// A 40-second flow on an otherwise idle cell; every 8 seconds a second
// device starts a 4-second fixed-rate 60 Mbit/s flow (the paper's MIX3
// competitor). Throughput and delay per algorithm.
#include "bench/bench_common.h"
#include "sim/algorithms.h"
#include "sim/scenario.h"

using namespace pbecc;

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, {"--threads"});
  par::ThreadPool pool(args.threads());
  bench::header("Figure 18: on-off 60 Mbit/s competitor every 8 s (4 s bursts)");

  struct Row {
    double tput = 0, avg = 0, p95 = 0, p50 = 0;
  };
  const auto algos = sim::all_algorithms();
  const auto rows = pool.parallel_map(algos.size(), [&](std::size_t j) {
    sim::ScenarioConfig cfg;
    cfg.seed = 131;
    cfg.cells = {{10.0, 0.02}, {10.0, 0.02}};
    sim::Scenario s{cfg};
    for (mac::UeId id = 1; id <= 2; ++id) {
      sim::UeSpec ue;
      ue.id = id;
      ue.cell_indices = {0, 1};
      s.add_ue(ue);
    }
    sim::FlowSpec fs;
    fs.algo = algos[j];
    fs.start = 100 * util::kMillisecond;
    fs.stop = 40 * util::kSecond;
    const int f = s.add_flow(fs);
    for (int burst = 0; burst < 5; ++burst) {
      sim::FlowSpec comp;
      comp.algo = "fixed";
      comp.fixed_rate = 60e6;
      comp.ue = 2;
      comp.start = (4 + burst * 8) * util::kSecond;
      comp.stop = comp.start + 4 * util::kSecond;
      if (comp.stop > fs.stop) break;
      s.add_flow(comp);
    }
    s.run_until(fs.stop);
    s.stats(f).finish(fs.stop);
    return Row{s.stats(f).avg_tput_mbps(), s.stats(f).avg_delay_ms(),
               s.stats(f).p95_delay_ms(), s.stats(f).median_delay_ms()};
  });

  std::printf("\n  %-8s %10s %10s %10s %10s\n", "algo", "tput(Mb)",
              "avg-d(ms)", "p95-d(ms)", "p50-d(ms)");
  for (std::size_t j = 0; j < algos.size(); ++j) {
    std::printf("  %-8s %10.1f %10.1f %10.1f %10.1f\n", algos[j].c_str(),
                rows[j].tput, rows[j].avg, rows[j].p95, rows[j].p50);
  }
  std::printf("\n  Paper shape: only PBE-CC combines high throughput with low\n"
              "  delay (paper: 57 Mbit/s at 61/71 ms avg/p95, vs BBR 62 Mbit/s\n"
              "  at 147/227 ms and CUBIC/Verus at ~250/410 ms).\n");
  return 0;
}
