// Shard-scaling bench (DESIGN.md §15): a city-scale scenario — 64 cells
// in 16 cell-clusters, one real flow per cluster plus aggregate
// background populations — stepped at shards {1, 4}. Prints wall time
// and cell-subframes/s per config, and exits 1 when the 4-shard rate is
// below 2.5x the 1-shard rate on a host with the cores to make the ratio
// meaningful.
//
// The contract under test is the tentpole one: shards is purely a
// parallelism knob, so both configs simulate the byte-identical run (the
// determinism suite pins that); this bench pins that the knob actually
// buys wall-clock at city scale.
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "sim/scenario.h"

namespace pbecc {
namespace {

constexpr int kCells = 64;
constexpr int kCellsPerCluster = 4;
constexpr int kClusters = kCells / kCellsPerCluster;

// Wall-clock ms to simulate `len` of the 64-cell city at `shards` workers.
double run_city(int shards, util::Duration len) {
  sim::ScenarioConfig cfg;
  cfg.seed = 9;
  cfg.shards = shards;
  cfg.cells.clear();
  for (int c = 0; c < kCells; ++c) {
    sim::CellSpec cell;
    cell.control_users_per_subframe = 0.2;
    cell.cluster = c / kCellsPerCluster;
    cfg.cells.push_back(cell);
  }
  sim::Scenario s{cfg};
  for (int cl = 0; cl < kClusters; ++cl) {
    const auto first = static_cast<std::size_t>(cl * kCellsPerCluster);
    sim::UeSpec ue;
    ue.id = static_cast<mac::UeId>(cl + 1);
    ue.cell_indices = {first, first + 1};
    s.add_ue(ue);
    sim::FlowSpec fs;
    fs.algo = "cubic";
    fs.ue = ue.id;
    fs.stop = len;
    s.add_flow(fs);
    sim::AggregateBackgroundSpec agg;
    agg.cell_index = first + 2;
    agg.traffic.sessions_per_sec = 40;
    s.add_background_aggregate(agg);
  }
  bench::WallTimer t;
  s.run_until(len);
  return t.ms();
}

}  // namespace
}  // namespace pbecc

int main(int argc, char** argv) {
  using namespace pbecc;
  int seconds = 2;
  util::parse(argc, argv, {bench::seconds(seconds)});
  const util::Duration len = seconds * util::kSecond;
  bench::header("Shard scaling: 64 cells / 16 clusters (DESIGN.md §15)");
  // Work metric: cell-subframes simulated (cells x 1 ms ticks), so the
  // rate is comparable across machines and run lengths.
  const double cell_subframes = util::to_seconds(len) * 1000.0 * kCells;

  double serial_sps = 0;
  for (const int shards : {1, 4}) {
    const double ms = run_city(shards, len);
    const double sps = cell_subframes * 1000.0 / ms;
    std::printf("  shards=%d  wall=%9.1f ms  %12.0f cell-subframes/s\n",
                shards, ms, sps);
    if (shards == 1) {
      serial_sps = sps;
    } else {
      const double ratio = sps / serial_sps;
      std::printf("  scaling: %.2fx at %d shards\n", ratio, shards);
      // Only meaningful with real cores behind the shard workers.
      if (std::thread::hardware_concurrency() >= 4 && ratio < 2.5) {
        std::fprintf(stderr,
                     "FAIL: expected >= 2.5x cell-subframes/s at 4 shards, "
                     "got %.2fx\n",
                     ratio);
        return 1;
      }
    }
  }
  return 0;
}
