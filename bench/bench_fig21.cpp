// Figure 21: fairness on the shared primary cell, four panels:
//  (a) three PBE-CC flows with similar RTTs, staggered starts/stops;
//  (b) three PBE-CC flows with RTTs 52/64/297 ms;
//  (c) two PBE-CC flows + one BBR flow;
//  (d) two PBE-CC flows + one CUBIC flow.
// We print the per-second PRB allocation of each user on the primary cell
// and Jain's index over the 2-flow and 3-flow phases.
#include <map>

#include "bench/bench_common.h"
#include "sim/scenario.h"

using namespace pbecc;

namespace {

using util::kSecond;

struct PanelData {
  std::map<int, std::map<mac::UeId, long>> per_second;
};

PanelData run_panel(const std::vector<std::string>& algos,
                    const std::vector<util::Duration>& one_way_delays) {
  sim::ScenarioConfig cfg;
  cfg.seed = 171;
  cfg.cells = {{10.0, 0.02}};
  sim::Scenario s{cfg};
  const std::size_t n = algos.size();
  // Paper schedule: starts at 0/10/20 s, ends at 60/50/40 s.
  const util::Time starts[] = {100 * util::kMillisecond, 10 * kSecond, 20 * kSecond};
  const util::Time stops[] = {60 * kSecond, 50 * kSecond, 40 * kSecond};

  for (std::size_t i = 0; i < n; ++i) {
    sim::UeSpec ue;
    ue.id = static_cast<mac::UeId>(i + 1);
    ue.cell_indices = {0};
    s.add_ue(ue);
    sim::FlowSpec fs;
    fs.algo = algos[i];
    fs.ue = ue.id;
    fs.path.one_way_delay = one_way_delays[i];
    fs.start = starts[i];
    fs.stop = stops[i];
    s.add_flow(fs);
  }

  PanelData out;
  auto& per_second = out.per_second;
  s.bs().set_allocation_observer([&](const mac::AllocationRecord& r) {
    for (const auto& a : r.data_allocs) {
      per_second[static_cast<int>(r.sf_index / 1000)][a.ue] += a.n_prbs;
    }
  });
  s.run_until(60 * kSecond);
  return out;
}

void print_panel(const char* title, PanelData& data) {
  auto& per_second = data.per_second;
  std::printf("\n--- %s ---\n", title);
  std::printf("  t(s)   user1  user2  user3  (mean PRBs on the primary cell)\n");
  for (int sec = 0; sec < 60; sec += 4) {
    std::printf("  %4d  %6.1f %6.1f %6.1f\n", sec,
                per_second[sec][1] / 1000.0, per_second[sec][2] / 1000.0,
                per_second[sec][3] / 1000.0);
  }

  // Jain's index over the phases where exactly 2 / exactly 3 flows run.
  auto jain_over = [&](int lo, int hi, std::vector<mac::UeId> users) {
    std::vector<double> totals(users.size(), 0);
    for (int sec = lo; sec < hi; ++sec) {
      for (std::size_t u = 0; u < users.size(); ++u) {
        totals[u] += static_cast<double>(per_second[sec][users[u]]);
      }
    }
    return util::jain_index(totals);
  };
  std::printf("  Jain index: two-flow phase (12-19 s) %.4f,  "
              "three-flow phase (22-39 s) %.4f\n",
              jain_over(12, 20, {1, 2}), jain_over(22, 40, {1, 2, 3}));
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 1;
  util::parse(argc, argv, {bench::threads(threads)});
  par::ThreadPool pool(threads);
  bench::header("Figure 21: multi-user, RTT and cross-protocol fairness");
  const util::Duration rtt_similar[] = {26 * util::kMillisecond,
                                        28 * util::kMillisecond,
                                        32 * util::kMillisecond};
  const util::Duration rtt_mixed[] = {26 * util::kMillisecond,
                                      32 * util::kMillisecond,
                                      148 * util::kMillisecond};

  struct PanelSpec {
    const char* title;
    std::vector<std::string> algos;
    std::vector<util::Duration> delays;
  };
  const std::vector<PanelSpec> panels = {
      {"(a) three PBE-CC flows, similar RTTs",
       {"pbe", "pbe", "pbe"},
       {rtt_similar[0], rtt_similar[1], rtt_similar[2]}},
      {"(b) three PBE-CC flows, RTTs 52/64/297 ms",
       {"pbe", "pbe", "pbe"},
       {rtt_mixed[0], rtt_mixed[1], rtt_mixed[2]}},
      {"(c) two PBE-CC flows + one BBR flow",
       {"pbe", "bbr", "pbe"},
       {rtt_similar[0], rtt_similar[1], rtt_similar[2]}},
      {"(d) two PBE-CC flows + one CUBIC flow",
       {"pbe", "cubic", "pbe"},
       {rtt_similar[0], rtt_similar[1], rtt_similar[2]}},
  };
  auto data = pool.parallel_map(panels.size(), [&](std::size_t j) {
    return run_panel(panels[j].algos, panels[j].delays);
  });
  for (std::size_t j = 0; j < panels.size(); ++j) {
    print_panel(panels[j].title, data[j]);
  }

  std::printf("\n  Paper shape: every panel converges to near-equal PRB shares\n"
              "  (Jain indices 98.3-99.97%% in the paper); the base station's\n"
              "  per-user fairness keeps even CUBIC/BBR from starving PBE-CC.\n");
  return 0;
}
