// Table 1: summary throughput speedup and delay reduction of PBE-CC vs
// BBR, Verus and Copa, averaged over the 25 busy and 15 idle stationary
// links of the location set (§6.3.1).
//
// Speedup  = mean over locations of (tput_PBE / tput_other).
// Delay reduction = mean over locations of (delay_other / delay_PBE),
// reported for the 95th percentile and the average delay.
#include <map>

#include "bench/bench_common.h"
#include "sim/location.h"

using namespace pbecc;

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, {"--seconds", "--threads"});
  par::ThreadPool pool(args.threads());
  const util::Duration len = args.seconds(12);
  bench::header("Table 1: PBE-CC vs BBR / Verus / Copa over 40 locations");
  std::printf("(flow length %.0f s per location; paper uses 20 s)\n",
              util::to_seconds(len));

  const std::vector<std::string> others = {"bbr", "verus", "copa"};
  struct Acc {
    util::OnlineStats speedup, p95_red, avg_red;
  };
  // [algo][busy?]
  std::map<std::string, std::map<bool, Acc>> acc;
  util::OnlineStats inet_frac_busy, inet_frac_idle;

  // 40 locations x 4 algorithms (pbe + 3 others), all independent: one
  // flat pool fan-out, then the per-location ratios merge in order.
  std::vector<std::string> all = {"pbe"};
  all.insert(all.end(), others.begin(), others.end());
  const auto results = pool.parallel_map(
      static_cast<std::size_t>(sim::kNumLocations) * all.size(),
      [&](std::size_t j) {
        return sim::run_location(
            sim::location(static_cast<int>(j / all.size())),
            all[j % all.size()], len);
      });

  for (int i = 0; i < sim::kNumLocations; ++i) {
    const auto loc = sim::location(i);
    const auto base = static_cast<std::size_t>(i) * all.size();
    const auto& pbe = results[base];
    (loc.busy ? inet_frac_busy : inet_frac_idle)
        .add(pbe.internet_state_fraction);
    for (std::size_t k = 0; k < others.size(); ++k) {
      const auto& r = results[base + 1 + k];
      auto& a = acc[others[k]][loc.busy];
      if (r.avg_tput_mbps > 0.01) a.speedup.add(pbe.avg_tput_mbps / r.avg_tput_mbps);
      if (pbe.p95_delay_ms > 0.01) a.p95_red.add(r.p95_delay_ms / pbe.p95_delay_ms);
      if (pbe.avg_delay_ms > 0.01) a.avg_red.add(r.avg_delay_ms / pbe.avg_delay_ms);
    }
  }

  std::printf("\n  %-8s %-6s  %18s  %22s  %18s\n", "Scheme", "Links",
              "PBE tput speedup", "95th pct delay reduction",
              "avg delay reduction");
  for (const auto& algo : others) {
    for (const bool busy : {true, false}) {
      const auto& a = acc[algo][busy];
      std::printf("  %-8s %-6s  %15.2fx  %21.2fx  %17.2fx\n", algo.c_str(),
                  busy ? "busy" : "idle", a.speedup.mean(), a.p95_red.mean(),
                  a.avg_red.mean());
    }
  }
  std::printf("\n  time in Internet-bottleneck state (PBE): busy %.0f%%, "
              "idle %.0f%%  (paper: 18%% / 4%%)\n",
              100 * inet_frac_busy.mean(), 100 * inet_frac_idle.mean());
  std::printf("\n  Paper (Table 1): BBR busy 1.04x/1.54x/1.39x, idle 1.10x/2.07x/1.84x;\n"
              "                   Verus busy 1.25x/3.97x/2.53x, idle 2.01x/3.44x/2.67x;\n"
              "                   Copa busy 10.35x/0.80x/0.80x, idle 12.94x/0.79x/0.82x.\n");
  return 0;
}
