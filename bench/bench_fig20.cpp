// Figure 20: one device, two concurrent connections to different servers
// (different RTTs). Per-flow throughput and delay for all eight
// algorithms; PBE-CC splits the estimated capacity evenly, others may not.
#include "bench/bench_common.h"
#include "sim/algorithms.h"
#include "sim/scenario.h"

using namespace pbecc;

int main(int argc, char** argv) {
  int threads = 1, seconds = 20;
  util::parse(argc, argv, {bench::threads(threads), bench::seconds(seconds)});
  par::ThreadPool pool(threads);
  const util::Duration len = seconds * util::kSecond;
  bench::header("Figure 20: two concurrent connections from one device");

  struct Row {
    double ta = 0, da = 0, tb = 0, db = 0, jain = 0;
  };
  const auto algos = sim::all_algorithms();
  const auto rows = pool.parallel_map(algos.size(), [&](std::size_t j) {
    sim::ScenarioConfig cfg;
    cfg.seed = 151;
    cfg.cells = {{10.0, 0.02}, {10.0, 0.02}};
    sim::Scenario s{cfg};
    sim::UeSpec ue;
    ue.cell_indices = {0, 1};
    s.add_ue(ue);

    sim::FlowSpec f1;
    f1.algo = algos[j];
    f1.path.one_way_delay = 24 * util::kMillisecond;
    f1.stop = f1.start + len;
    sim::FlowSpec f2 = f1;
    f2.path.one_way_delay = 28 * util::kMillisecond;
    const int a = s.add_flow(f1);
    const int b = s.add_flow(f2);
    s.run_until(f1.stop + 200 * util::kMillisecond);
    s.stats(a).finish(f1.stop);
    s.stats(b).finish(f2.stop);

    const double ta = s.stats(a).avg_tput_mbps();
    const double tb = s.stats(b).avg_tput_mbps();
    const double shares[] = {ta, tb};
    return Row{ta, s.stats(a).median_delay_ms(), tb,
               s.stats(b).median_delay_ms(), util::jain_index(shares)};
  });

  std::printf("\n  %-8s  flow1: tput(Mb) p50-d(ms)   flow2: tput(Mb) "
              "p50-d(ms)   balance\n", "algo");
  for (std::size_t j = 0; j < algos.size(); ++j) {
    const auto& r = rows[j];
    std::printf("  %-8s  %14.1f %9.1f   %14.1f %9.1f   Jain %.3f\n",
                algos[j].c_str(), r.ta, r.da, r.tb, r.db, r.jain);
  }
  std::printf("\n  Paper shape: PBE-CC gives both flows similar throughput at\n"
              "  low delay (26/28 Mbit/s, 48/56 ms); BBR splits unevenly\n"
              "  (10 vs 35 Mbit/s in the paper).\n");
  return 0;
}
