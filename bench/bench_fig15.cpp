// Figure 15: at how many locations does each algorithm push hard enough
// that the network activates carrier aggregation? (Max 30: the 10
// single-cell "Redmi 8" locations cannot aggregate.)
#include "bench/bench_common.h"
#include "sim/algorithms.h"
#include "sim/location.h"

using namespace pbecc;

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, {"--seconds", "--threads"});
  par::ThreadPool pool(args.threads());
  const util::Duration len = args.seconds(8);
  bench::header("Figure 15: locations where carrier aggregation triggers");

  const auto algos = sim::all_algorithms();
  std::vector<int> ca_locs;
  for (int i = 0; i < sim::kNumLocations; ++i) {
    if (sim::location(i).n_cells >= 2) ca_locs.push_back(i);
  }
  const int ca_capable = static_cast<int>(ca_locs.size());

  const auto results = pool.parallel_map(
      ca_locs.size() * algos.size(), [&](std::size_t j) {
        return sim::run_location(
            sim::location(ca_locs[j / algos.size()]),
            algos[j % algos.size()], len);
      });
  std::map<std::string, int> triggered;
  for (std::size_t j = 0; j < results.size(); ++j) {
    triggered[algos[j % algos.size()]] += results[j].ca_triggered ? 1 : 0;
  }

  std::printf("\n  algorithm   CA triggered (of %d CA-capable locations)\n",
              ca_capable);
  for (const auto& algo : sim::all_algorithms()) {
    std::printf("  %-9s   %2d  ", algo.c_str(), triggered[algo]);
    for (int k = 0; k < triggered[algo]; ++k) std::printf("#");
    std::printf("\n");
  }
  std::printf("\n  Paper shape: PBE-CC, BBR, CUBIC and Verus trigger aggregation\n"
              "  at most locations; Copa, PCC, PCC-Vivace and Sprout send so\n"
              "  conservatively the network never activates a secondary cell,\n"
              "  leaving capacity unused.\n");
  return 0;
}
