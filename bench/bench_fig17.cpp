// Figure 17: PBE-CC vs BBR along the same mobility trajectory, as a time
// series — median throughput and delay per two-second interval.
#include <map>

#include "bench/bench_common.h"
#include "sim/scenario.h"

using namespace pbecc;

namespace {

struct Series {
  std::map<int, util::SampleSet> tput;   // per 2 s bucket: window tputs
  std::map<int, util::SampleSet> delay;  // per 2 s bucket: delays
};

Series run(const std::string& algo) {
  using util::kSecond;
  sim::ScenarioConfig cfg;
  cfg.seed = 101;
  cfg.cells = {{10.0, 0.02}, {10.0, 0.02}};
  sim::Scenario s{cfg};
  sim::UeSpec ue;
  ue.cell_indices = {0, 1};
  ue.trace = phy::MobilityTrace({{0, -85},
                                 {13 * kSecond, -85},
                                 {26 * kSecond, -105},
                                 {30 * kSecond, -85},
                                 {40 * kSecond, -85}});
  s.add_ue(ue);
  sim::FlowSpec fs;
  fs.algo = algo;
  fs.start = 100 * util::kMillisecond;
  fs.stop = 40 * kSecond;
  const int f = s.add_flow(fs);

  Series out;
  // 200 ms byte counters -> throughput samples, bucketed by 2 s interval.
  struct Acc {
    std::int64_t bytes = 0;
    util::Time win_start = 0;
  };
  auto acc = std::make_shared<Acc>();
  s.sender(f);  // ensure flow exists
  // Reuse the receiver's delivery observer via stats? Use our own: attach
  // a second observer through FlowStats samples after the run instead:
  s.run_until(fs.stop);
  s.stats(f).finish(fs.stop);
  // Windows are 100 ms each, in order: map window index -> 2 s bucket.
  const auto wins = s.stats(f).window_tputs_mbps().samples();
  for (std::size_t i = 0; i < wins.size(); ++i) {
    out.tput[static_cast<int>(i / 20)].add(wins[i]);
  }
  const auto dl = s.stats(f).delays_ms().samples();
  // Delay samples arrive ~uniformly in time; bucket proportionally.
  for (std::size_t i = 0; i < dl.size(); ++i) {
    const int bucket = static_cast<int>(20.0 * static_cast<double>(i) /
                                        static_cast<double>(dl.size()));
    out.delay[bucket].add(dl[i]);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 1;
  util::parse(argc, argv, {bench::threads(threads)});
  par::ThreadPool pool(threads);
  bench::header("Figure 17: PBE-CC vs BBR time series along the mobility walk");
  const auto series = pool.parallel_map(
      2, [&](std::size_t j) { return run(j == 0 ? "pbe" : "bbr"); });
  auto pbe = series[0];
  auto bbr = series[1];

  std::printf("\n            ---- PBE-CC ----      ----- BBR -----\n");
  std::printf("  t(s)      tput(Mb)  delay(ms)   tput(Mb)  delay(ms)\n");
  for (int b = 0; b < 20; ++b) {
    std::printf("  %2d-%2d  %10.1f %10.1f %10.1f %10.1f %s\n", 2 * b, 2 * b + 2,
                pbe.tput[b].percentile(50), pbe.delay[b].percentile(50),
                bbr.tput[b].percentile(50), bbr.delay[b].percentile(50),
                (2 * b >= 13 && 2 * b < 30) ? "| moving" : "");
  }
  std::printf("\n  Paper shape: both track the capacity dip (13-26 s); BBR's\n"
              "  delay spikes on the signal drop and again when capacity\n"
              "  recovers (over-estimation), PBE-CC's delay stays flat.\n");
  return 0;
}
