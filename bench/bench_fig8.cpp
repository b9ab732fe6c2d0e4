// Figure 8: higher send rates mean more retransmission delay.
//
// Fixed offered loads of 6 / 24 / 36 Mbit/s over the same link; the bench
// reports the one-way delay distribution and the fraction of packets that
// absorbed >= one 8 ms HARQ retransmission, plus the stability of the
// minimum (Dprop survives because some packets always go through clean).
#include "bench/bench_common.h"
#include "sim/scenario.h"

using namespace pbecc;

namespace {

struct LoadResult {
  double mn = 0, p50 = 0, p90 = 0, p99 = 0, spiked_pct = 0;
};

LoadResult run_load(double load) {
  sim::ScenarioConfig cfg;
  cfg.seed = 77;
  cfg.cells = {{10.0, 0.0}};
  sim::Scenario s{cfg};
  sim::UeSpec ue;
  ue.trace = phy::MobilityTrace::stationary(-90.0);  // ~65 Mbit/s capacity
  s.add_ue(ue);
  sim::FlowSpec flow;
  flow.algo = "fixed";
  flow.fixed_rate = load * 1e6;
  flow.path.jitter = 3 * util::kMillisecond;  // the paper's ~3 ms jitter
  flow.stop = 15 * util::kSecond;
  const int f = s.add_flow(flow);
  s.run_until(flow.stop);
  s.stats(f).finish(flow.stop);

  const auto& d = s.stats(f).delays_ms();
  const double mn = d.min();
  int spiked = 0;
  for (double v : d.samples()) spiked += v >= mn + 8.0 ? 1 : 0;
  return {mn, d.percentile(50), d.percentile(90), d.percentile(99),
          100.0 * spiked / static_cast<double>(d.count())};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv, {"--threads"});
  par::ThreadPool pool(args.threads());
  bench::header("Figure 8: one-way delay vs offered load (6/24/36 Mbit/s)");

  const std::vector<double> loads = {6.0, 24.0, 36.0};
  const auto results = pool.parallel_map(
      loads.size(), [&](std::size_t j) { return run_load(loads[j]); });

  std::printf("\n  load(Mb)  min(ms)  p50(ms)  p90(ms)  p99(ms)  "
              ">=8ms-over-min(%%)\n");
  for (std::size_t j = 0; j < loads.size(); ++j) {
    const auto& r = results[j];
    std::printf("  %7.0f  %7.1f  %7.1f  %7.1f  %7.1f  %12.1f\n", loads[j],
                r.mn, r.p50, r.p90, r.p99, r.spiked_pct);
  }
  std::printf("\n  Paper shape: at 6 Mbit/s almost no packets see the 8 ms\n"
              "  retransmission step; at 24 and 36 Mbit/s progressively more\n"
              "  do (bigger TBs fail more often), while the *minimum* delay\n"
              "  stays pinned at the propagation floor at every load.\n");
  return 0;
}
