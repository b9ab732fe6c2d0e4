// Multi-user fairness demo (paper §6.4): three phones share one cell;
// flows start staggered. Watch the per-user PRB allocation converge to
// the fair share, and the Jain index of the steady state.
//
//   ./build/examples/multi_user_fairness pbe pbe bbr
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/algorithms.h"
#include "sim/scenario.h"
#include "util/cli.h"
#include "util/stats.h"

using namespace pbecc;

int main(int argc, char** argv) {
  std::vector<std::string> algos = {"pbe", "pbe", "pbe"};
  const auto algo = [](const char* usage, std::string& to, const char* help) {
    return util::choice(usage, to,
                        {sim::all_algorithms(), sim::extra_algorithms()}, help);
  };
  util::parse(argc, argv,
              {algo("[algo1]", algos[0], "user 1's algorithm, from 0 s"),
               algo("[algo2]", algos[1], "user 2's algorithm, from 5 s"),
               algo("[algo3]", algos[2], "user 3's algorithm, from 10 s")});

  sim::ScenarioConfig cfg;
  cfg.seed = 33;
  cfg.cells = {{10.0, 0.02}};
  sim::Scenario s{cfg};

  std::vector<int> flows;
  for (mac::UeId id = 1; id <= 3; ++id) {
    sim::UeSpec ue;
    ue.id = id;
    ue.cell_indices = {0};
    s.add_ue(ue);
    sim::FlowSpec fs;
    fs.algo = algos[id - 1];
    fs.ue = id;
    fs.start = (id - 1) * 5 * util::kSecond + 100 * util::kMillisecond;
    fs.stop = 25 * util::kSecond;
    flows.push_back(s.add_flow(fs));
  }

  std::map<int, std::map<mac::UeId, long>> per_second;
  s.bs().set_allocation_observer([&](const mac::AllocationRecord& r) {
    for (const auto& a : r.data_allocs) {
      per_second[static_cast<int>(r.sf_index / 1000)][a.ue] += a.n_prbs;
    }
  });
  s.run_until(25 * util::kSecond);

  std::printf("flows: user1=%s (t=0s), user2=%s (t=5s), user3=%s (t=10s)\n\n",
              algos[0].c_str(), algos[1].c_str(), algos[2].c_str());
  std::printf("t(s)   user1  user2  user3   (mean PRBs of 50)\n");
  for (int sec = 0; sec < 25; sec += 2) {
    std::printf("%4d  %6.1f %6.1f %6.1f\n", sec, per_second[sec][1] / 1000.0,
                per_second[sec][2] / 1000.0, per_second[sec][3] / 1000.0);
  }

  std::vector<double> shares;
  for (mac::UeId id = 1; id <= 3; ++id) {
    double total = 0;
    for (int sec = 12; sec < 25; ++sec) total += static_cast<double>(per_second[sec][id]);
    shares.push_back(total);
  }
  std::printf("\nsteady-state (12-25 s) Jain fairness index: %.4f\n",
              util::jain_index(shares));
  for (int i = 0; i < 3; ++i) {
    s.stats(flows[static_cast<std::size_t>(i)]).finish(25 * util::kSecond);
    std::printf("user%d: %.1f Mbit/s, p95 delay %.1f ms\n", i + 1,
                s.stats(flows[static_cast<std::size_t>(i)]).avg_tput_mbps(),
                s.stats(flows[static_cast<std::size_t>(i)]).p95_delay_ms());
  }
  return 0;
}
