// Figure 3: HARQ retransmission and the reordering buffer.
//
// A retransmitted transport block arrives 8 subframes after the original;
// the mobile buffers everything behind it, so the erroneous block's
// packets see +8 ms and the following blocks' packets see a decaying
// 7..0 ms. The bench runs a steady flow over an error-prone link, finds
// retransmission episodes, and prints the delay staircase around one.
#include <vector>

#include "bench/bench_common.h"
#include "sim/scenario.h"

using namespace pbecc;

int main(int argc, char** argv) {
  bench::Args(argc, argv, {});
  bench::header("Figure 3: 8 ms retransmission delay and reordering");

  sim::ScenarioConfig cfg;
  cfg.seed = 9;
  cfg.cells = {{10.0, 0.0}};
  sim::Scenario s{cfg};
  sim::UeSpec ue;
  // Large TBs at moderate signal: a few percent TB error rate.
  ue.trace = phy::MobilityTrace::stationary(-97.0);
  ue.noise_floor_dbm = -110.0;
  s.add_ue(ue);

  sim::FlowSpec flow;
  flow.algo = "fixed";
  flow.fixed_rate = 16e6;
  flow.path.jitter = 0;
  flow.stop = 20 * util::kSecond;
  const int f = s.add_flow(flow);
  s.run_until(flow.stop);
  s.stats(f).finish(flow.stop);

  const auto& delays = s.stats(f).delays_ms();
  // Copy in delivery order *before* percentile() lazily sorts the set.
  const std::vector<double> samples(delays.samples().begin(),
                                    delays.samples().end());
  const double floor_ms = delays.percentile(5);

  // Locate a retransmission episode: a jump of >= 7 ms over the floor.
  std::size_t episode = 0;
  for (std::size_t i = 50; i + 16 < samples.size(); ++i) {
    if (samples[i] > floor_ms + 7.0 && samples[i - 1] < floor_ms + 4.0) {
      episode = i;
      break;
    }
  }

  std::printf("\n  one-way delay floor: %.1f ms;   TB errors: %llu of %llu TBs "
              "(%.1f%%)\n",
              floor_ms,
              static_cast<unsigned long long>(s.bs().total_tb_errors()),
              static_cast<unsigned long long>(s.bs().total_tbs_sent()),
              100.0 * static_cast<double>(s.bs().total_tb_errors()) /
                  static_cast<double>(s.bs().total_tbs_sent()));
  if (episode == 0) {
    std::printf("  no retransmission episode found (unexpected)\n");
    return 1;
  }
  std::printf("\n  packets around one retransmission episode "
              "(delay relative to floor):\n  pkt  +delay(ms)\n");
  for (std::size_t i = episode - 3; i < episode + 13 && i < samples.size(); ++i) {
    std::printf("  %3zd  %+9.1f  %s\n", static_cast<ssize_t>(i) - static_cast<ssize_t>(episode),
                samples[i] - floor_ms,
                samples[i] > floor_ms + 6.5 ? "<- buffered behind the retransmission"
                                            : "");
  }
  std::printf("\n  Paper shape: the erroneous TB's packets wait ~8 ms; packets in\n"
              "  the TBs behind it drain with decreasing extra delay (7..0 ms).\n");
  return 0;
}
