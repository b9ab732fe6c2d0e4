// Figure 19: drill-down time series of the controlled-competition run —
// PBE-CC and BBR throughput (200 ms averages) and median delay per 500 ms,
// with the competitor's on-periods marked.
#include <map>

#include "bench/bench_common.h"
#include "sim/scenario.h"

using namespace pbecc;

namespace {

struct Series {
  std::map<int, double> tput_mbps;          // per 500 ms bucket
  std::map<int, util::SampleSet> delay_ms;  // per 500 ms bucket
};

Series run(const std::string& algo) {
  sim::ScenarioConfig cfg;
  cfg.seed = 131;
  cfg.cells = {{10.0, 0.02}, {10.0, 0.02}};
  sim::Scenario s{cfg};
  for (mac::UeId id = 1; id <= 2; ++id) {
    sim::UeSpec ue;
    ue.id = id;
    ue.cell_indices = {0, 1};
    s.add_ue(ue);
  }
  sim::FlowSpec fs;
  fs.algo = algo;
  fs.start = 100 * util::kMillisecond;
  fs.stop = 24 * util::kSecond;
  const int f = s.add_flow(fs);
  for (int burst = 0; burst < 3; ++burst) {
    sim::FlowSpec comp;
    comp.algo = "fixed";
    comp.fixed_rate = 60e6;
    comp.ue = 2;
    comp.start = (4 + burst * 8) * util::kSecond;
    comp.stop = comp.start + 4 * util::kSecond;
    s.add_flow(comp);
  }
  s.run_until(fs.stop);
  s.stats(f).finish(fs.stop);

  Series out;
  const auto wins = s.stats(f).window_tputs_mbps().samples();  // 100 ms each
  std::map<int, util::OnlineStats> t;
  for (std::size_t i = 0; i < wins.size(); ++i) {
    t[static_cast<int>(i / 5)].add(wins[i]);
  }
  for (auto& [b, st] : t) out.tput_mbps[b] = st.mean();
  const auto dl = s.stats(f).delays_ms().samples();
  for (std::size_t i = 0; i < dl.size(); ++i) {
    const int bucket = static_cast<int>(48.0 * static_cast<double>(i) /
                                        static_cast<double>(dl.size()));
    out.delay_ms[bucket].add(dl[i]);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 1;
  util::parse(argc, argv, {bench::threads(threads)});
  par::ThreadPool pool(threads);
  bench::header("Figure 19: PBE-CC vs BBR through competitor on/off transitions");
  const auto series = pool.parallel_map(
      2, [&](std::size_t j) { return run(j == 0 ? "pbe" : "bbr"); });
  auto pbe = series[0];
  auto bbr = series[1];

  std::printf("\n            ---- PBE-CC ----      ----- BBR -----\n");
  std::printf("  t(s)      tput(Mb)  delay(ms)   tput(Mb)  delay(ms)   competitor\n");
  for (int b = 0; b < 48; ++b) {
    const double t0 = 0.5 * b;
    const bool comp_on = (t0 >= 4 && t0 < 8) || (t0 >= 12 && t0 < 16) ||
                         (t0 >= 20 && t0 < 24);
    std::printf("  %4.1f   %10.1f %10.1f %10.1f %10.1f   %s\n", t0,
                pbe.tput_mbps[b], pbe.delay_ms[b].percentile(50),
                bbr.tput_mbps[b], bbr.delay_ms[b].percentile(50),
                comp_on ? "ON" : "");
  }
  std::printf("\n  Paper shape: PBE-CC halves its rate within ~1 RTT of the\n"
              "  competitor arriving (delay stays near the floor) and reclaims\n"
              "  the capacity immediately when it leaves; BBR reacts late, so\n"
              "  its delay inflates during every ON period.\n");
  return 0;
}
