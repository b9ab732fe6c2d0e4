// Figure 5: idle-PRB detection and reallocation.
//
// Three PBE-CC users share one cell; one of them finishes its flow
// mid-run. The survivors observe the idle PRBs in the decoded control
// channel and grab their fair share within a few RTTs. The bench prints
// per-100 ms PRB allocations around the departure.
#include <map>

#include "bench/bench_common.h"
#include "sim/scenario.h"

using namespace pbecc;

int main(int argc, char** argv) {
  bench::Args(argc, argv, {});
  bench::header("Figure 5: idle PRBs are detected and re-shared");

  sim::ScenarioConfig cfg;
  cfg.seed = 3;
  cfg.cells = {{10.0, 0.02}};
  sim::Scenario s{cfg};
  for (mac::UeId id = 1; id <= 3; ++id) {
    sim::UeSpec ue;
    ue.id = id;
    ue.cell_indices = {0};
    s.add_ue(ue);
  }
  std::vector<int> flows;
  for (mac::UeId id = 1; id <= 3; ++id) {
    sim::FlowSpec fs;
    fs.algo = "pbe";
    fs.ue = id;
    fs.start = 100 * util::kMillisecond;
    // User 2's flow ends at t = 6 s; the others run to 10 s.
    fs.stop = id == 2 ? 6 * util::kSecond : 10 * util::kSecond;
    flows.push_back(s.add_flow(fs));
  }

  struct Window {
    long prbs[4] = {0, 0, 0, 0};
    long idle = 0, sfs = 0;
  };
  std::map<std::int64_t, Window> windows;
  s.bs().set_allocation_observer([&](const mac::AllocationRecord& r) {
    auto& w = windows[r.sf_index / 100];
    ++w.sfs;
    w.idle += r.idle_prbs;
    for (const auto& a : r.data_allocs) {
      if (a.ue >= 1 && a.ue <= 3) w.prbs[a.ue] += a.n_prbs;
    }
  });
  s.run_until(10 * util::kSecond);

  std::printf("\n  time(s)  user1  user2  user3  idle   (PRBs, 100 ms means)\n");
  for (const auto& [win, w] : windows) {
    const double t = static_cast<double>(win) * 0.1;
    if (t < 5.0 || t > 8.0 || w.sfs == 0) continue;
    std::printf("  %6.1f  %5.1f  %5.1f  %5.1f  %5.1f %s\n", t,
                static_cast<double>(w.prbs[1]) / w.sfs,
                static_cast<double>(w.prbs[2]) / w.sfs,
                static_cast<double>(w.prbs[3]) / w.sfs,
                static_cast<double>(w.idle) / w.sfs,
                t >= 5.9 && t <= 6.1 ? "<- user 2's flow ends" : "");
  }
  for (int i = 0; i < 3; ++i) s.stats(flows[static_cast<std::size_t>(i)]).finish(10 * util::kSecond);
  std::printf("\n  throughputs: user1 %.1f, user2 %.1f, user3 %.1f Mbit/s\n",
              s.stats(flows[0]).avg_tput_mbps(), s.stats(flows[1]).avg_tput_mbps(),
              s.stats(flows[2]).avg_tput_mbps());
  std::printf("\n  Paper shape: before t=6 s the three users split the cell\n"
              "  ~evenly; after user 2 leaves, users 1 and 3 absorb the idle\n"
              "  PRBs within a few subframe windows and settle at ~1/2 each.\n");
  return 0;
}
