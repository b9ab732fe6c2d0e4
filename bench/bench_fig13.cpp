// Figure 13: detailed one-way-delay / throughput order statistics for all
// eight algorithms at four representative indoor locations:
//   (a) 1 aggregated cell, busy;   (b) 2 cells, busy;
//   (c) 3 cells, busy;             (d) 3 cells, idle (late night).
// For each algorithm we print the 10/25/50/75/90th percentiles of
// throughput (100 ms windows) and one-way delay — the box+whisker data of
// the paper's plots.
#include "bench/bench_common.h"
#include "sim/algorithms.h"
#include "sim/location.h"

using namespace pbecc;

namespace {

sim::LocationProfile pick(int n_cells, bool busy) {
  for (int i = 0; i < sim::kNumLocations; ++i) {
    const auto loc = sim::location(i);
    if (loc.indoor && loc.n_cells == n_cells && loc.busy == busy) return loc;
  }
  return sim::location(0);
}

void print_panel(const char* title, const sim::LocationProfile& loc,
                 const std::vector<std::string>& algos,
                 const std::vector<sim::LocationRunResult>& results) {
  std::printf("\n--- %s [%s] ---\n", title, loc.describe().c_str());
  for (std::size_t a = 0; a < algos.size(); ++a) {
    const auto& r = results[a];
    std::printf("  %-8s tput(Mbit/s):", algos[a].c_str());
    for (int p : {10, 25, 50, 75, 90}) {
      std::printf(" %6.1f", r.window_tputs.percentile(p));
    }
    std::printf("   delay(ms):");
    for (int p : {10, 25, 50, 75, 90}) {
      std::printf(" %6.1f", r.delays_ms.percentile(p));
    }
    std::printf("%s\n", r.ca_triggered ? "  [CA]" : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, {"--seconds", "--threads"});
  par::ThreadPool pool(args.threads());
  const util::Duration len = args.seconds(12);
  bench::header("Figure 13: delay/throughput order statistics, indoor locations");

  const auto algos = sim::all_algorithms();
  const std::vector<std::pair<const char*, sim::LocationProfile>> panels = {
      {"(a) one cell, busy", pick(1, true)},
      {"(b) two cells, busy", pick(2, true)},
      {"(c) three cells, busy", pick(3, true)},
      {"(d) three cells, idle", pick(3, false)},
  };
  // 4 panels x 8 algorithms of independent runs: one flat pool fan-out.
  const auto results =
      pool.parallel_map(panels.size() * algos.size(), [&](std::size_t j) {
        return sim::run_location(panels[j / algos.size()].second,
                                 algos[j % algos.size()], len);
      });

  for (std::size_t p = 0; p < panels.size(); ++p) {
    print_panel(panels[p].first, panels[p].second, algos,
                {results.begin() + static_cast<std::ptrdiff_t>(p * algos.size()),
                 results.begin() +
                     static_cast<std::ptrdiff_t>((p + 1) * algos.size())});
  }
  std::printf("\n  Paper shape: PBE-CC and BBR lead on throughput with PBE-CC at\n"
              "  a fraction of the delay; Verus/CUBIC pay hundreds of ms; Copa,\n"
              "  PCC, Vivace and Sprout sit in the low-throughput/low-delay\n"
              "  corner. Variance collapses on the idle cell (panel d).\n");
  return 0;
}
