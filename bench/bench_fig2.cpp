// Figure 2: carrier aggregation in action.
//
// A sender offers a fixed 40 Mbit/s for two seconds — more than the
// primary cell can carry — then drops to 6 Mbit/s. The bench prints the
// primary/secondary PRB allocation and packet delay over time; the paper's
// shape: queue builds, the secondary activates (~0.13 s), the queue drains,
// and after the rate drop the secondary is deactivated.
#include <map>

#include "bench/bench_common.h"
#include "sim/scenario.h"

using namespace pbecc;

int main(int argc, char** argv) {
  bench::Args(argc, argv, {});
  bench::header("Figure 2: secondary-cell activation / deactivation");

  sim::ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.cells = {{10.0, 0.02}, {10.0, 0.02}};
  sim::Scenario s{cfg};

  sim::UeSpec ue;
  ue.cell_indices = {0, 1};
  // ~-95 dBm: the primary alone tops out near 26 Mbit/s, below the 40
  // Mbit/s offered load.
  ue.trace = phy::MobilityTrace::stationary(-95.0);
  s.add_ue(ue);

  sim::FlowSpec flow;
  flow.algo = "fixed";
  flow.fixed_rate = 40e6;
  flow.start = 100 * util::kMillisecond;
  flow.stop = flow.start + 2 * util::kSecond;  // then the app rate drops
  const int f40 = s.add_flow(flow);

  sim::FlowSpec low = flow;
  low.fixed_rate = 6e6;
  low.start = flow.stop;
  low.stop = low.start + 1500 * util::kMillisecond;
  const int f6 = s.add_flow(low);

  // Per-50ms averages of the allocation ground truth.
  struct Window {
    long prb_primary = 0, prb_secondary = 0, sfs = 0;
  };
  std::map<std::int64_t, Window> windows;
  s.bs().set_allocation_observer([&](const mac::AllocationRecord& r) {
    auto& w = windows[r.sf_index / 50];
    if (r.cell == 1) ++w.sfs;
    for (const auto& a : r.data_allocs) {
      if (a.ue != 1) continue;
      (r.cell == 1 ? w.prb_primary : w.prb_secondary) += a.n_prbs;
    }
  });

  util::Time activated_at = -1, deactivated_at = -1;
  std::size_t last_active = 1;
  for (int ms = 0; ms <= 3700; ms += 10) {
    s.run_until(ms * util::kMillisecond);
    const auto n = s.bs().ca(1).num_active();
    if (n > last_active && activated_at < 0) activated_at = s.loop().now();
    if (n < last_active && deactivated_at < 0) deactivated_at = s.loop().now();
    last_active = n;
  }
  s.stats(f40).finish(flow.stop);
  s.stats(f6).finish(low.stop);

  std::printf("\n  time(s)  PRB-primary  PRB-secondary  delay-p50(ms)\n");
  // Delay series from both flows merged by windows of their samples.
  for (const auto& [win, w] : windows) {
    if (w.sfs == 0) continue;
    const double t = static_cast<double>(win) * 0.05;
    if (t > 3.7) break;
    std::printf("  %6.2f   %10.1f  %12.1f\n", t,
                static_cast<double>(w.prb_primary) / w.sfs,
                static_cast<double>(w.prb_secondary) / w.sfs);
  }

  std::printf("\n  offered 40 Mbit/s from t=0.10s: secondary activated at t=%.2fs\n",
              activated_at >= 0 ? util::to_seconds(activated_at) : -1.0);
  std::printf("  offered 6 Mbit/s from t=2.10s: secondary deactivated at t=%.2fs\n",
              deactivated_at >= 0 ? util::to_seconds(deactivated_at) : -1.0);
  std::printf("  40 Mbit/s phase: delivered %.1f Mbit/s, p95 delay %.1f ms "
              "(queue build+drain)\n",
              s.stats(f40).avg_tput_mbps(), s.stats(f40).p95_delay_ms());
  std::printf("  6 Mbit/s phase:  delivered %.1f Mbit/s, p95 delay %.1f ms\n",
              s.stats(f6).avg_tput_mbps(), s.stats(f6).p95_delay_ms());
  std::printf("\n  Paper shape: activation ~0.13 s after overload onset; queue\n"
              "  drained within ~0.6 s; deactivation ~0.5-1 s after rate drop.\n");
  return 0;
}
