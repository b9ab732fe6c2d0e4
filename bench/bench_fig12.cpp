// Figure 12: distribution across the 40 stationary locations of
//  (a) average throughput and (b) 95th-percentile one-way delay, for the
// four "high throughput" algorithms: PBE-CC, BBR, CUBIC and Verus.
#include "bench/bench_common.h"
#include "sim/location.h"

using namespace pbecc;

int main(int argc, char** argv) {
  int threads = 1, seconds = 12;
  util::parse(argc, argv, {bench::threads(threads), bench::seconds(seconds)});
  par::ThreadPool pool(threads);
  const util::Duration len = seconds * util::kSecond;
  bench::header("Figure 12: CDFs across 40 locations (high-tput algorithms)");

  const std::vector<std::string> algos = {"pbe", "bbr", "cubic", "verus"};
  // Every (location, algorithm) run is an independent simulation: fan the
  // whole grid out on the pool and merge in job order.
  struct Job {
    int loc;
    std::string algo;
  };
  std::vector<Job> jobs;
  for (int i = 0; i < sim::kNumLocations; ++i) {
    for (const auto& algo : algos) jobs.push_back({i, algo});
  }
  const auto results = pool.parallel_map(jobs.size(), [&](std::size_t j) {
    return sim::run_location(sim::location(jobs[j].loc), jobs[j].algo, len);
  });

  std::map<std::string, util::SampleSet> tput, p95;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    tput[jobs[j].algo].add(results[j].avg_tput_mbps);
    p95[jobs[j].algo].add(results[j].p95_delay_ms);
  }

  std::printf("\n  (a) average throughput across locations, Mbit/s "
              "(CDF deciles 10..100):\n");
  for (const auto& a : algos) bench::print_cdf(("    " + a).c_str(), tput[a]);
  std::printf("\n  (b) 95th percentile one-way delay across locations, ms "
              "(CDF deciles 10..100):\n");
  for (const auto& a : algos) bench::print_cdf(("    " + a).c_str(), p95[a]);

  std::printf("\n  means: ");
  for (const auto& a : algos) {
    std::printf("%s %.1f Mbit/s / %.0f ms;  ", a.c_str(), tput[a].mean(),
                p95[a].mean());
  }
  std::printf("\n\n  Paper shape: PBE-CC's throughput CDF sits right of BBR's\n"
              "  and CUBIC's for most locations while its delay CDF sits far\n"
              "  left of all three (2.3x CUBIC throughput at 1.8x less delay).\n");
  return 0;
}
