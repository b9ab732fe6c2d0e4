// Figure 14: the same order statistics as Figure 13, for two outdoor
// locations with two aggregated cells — one during busy hours, one late at
// night (idle).
#include "bench/bench_common.h"
#include "sim/algorithms.h"
#include "sim/location.h"

using namespace pbecc;

namespace {

sim::LocationProfile pick(bool busy) {
  for (int i = 0; i < sim::kNumLocations; ++i) {
    const auto loc = sim::location(i);
    if (!loc.indoor && loc.n_cells == 2 && loc.busy == busy) return loc;
  }
  return sim::location(0);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, {"--seconds", "--threads"});
  par::ThreadPool pool(args.threads());
  const util::Duration len = args.seconds(12);
  bench::header("Figure 14: outdoor two-cell locations, busy and idle");
  const auto algos = sim::all_algorithms();
  const bool panels[] = {true, false};
  // 2 panels x 8 algorithms, each an independent run: pool fan-out.
  const auto results =
      pool.parallel_map(2 * algos.size(), [&](std::size_t j) {
        return sim::run_location(pick(panels[j / algos.size()]),
                                 algos[j % algos.size()], len);
      });

  for (std::size_t p = 0; p < 2; ++p) {
    const bool busy = panels[p];
    const auto loc = pick(busy);
    std::printf("\n--- (%c) outdoor, %s [%s] ---\n", busy ? 'a' : 'b',
                busy ? "busy hours" : "late night", loc.describe().c_str());
    for (std::size_t a = 0; a < algos.size(); ++a) {
      const auto& r = results[p * algos.size() + a];
      std::printf("  %-8s tput(Mbit/s):", algos[a].c_str());
      for (int pc : {10, 25, 50, 75, 90}) {
        std::printf(" %6.1f", r.window_tputs.percentile(pc));
      }
      std::printf("   delay(ms):");
      for (int pc : {10, 25, 50, 75, 90}) {
        std::printf(" %6.1f", r.delays_ms.percentile(pc));
      }
      std::printf("%s\n", r.ca_triggered ? "  [CA]" : "");
    }
  }
  std::printf("\n  Paper shape: same ordering as Figure 13; on the idle outdoor\n"
              "  link PBE-CC's throughput and delay variance are small.\n");
  return 0;
}
