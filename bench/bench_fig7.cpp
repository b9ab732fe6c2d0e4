// Figure 7: how many users actually compete for bandwidth?
//  (a) CDF of the number of active users in a 40 ms window, before and
//      after the control-traffic filter (Ta > 1, Pave > 4);
//  (b) CDF of each detected user's activity length and mean PRBs.
// Plus the §7 discussion stats: control messages per subframe and size.
#include "bench/bench_common.h"
#include "decoder/monitor.h"
#include "sim/scenario.h"

using namespace pbecc;

int main(int argc, char** argv) {
  util::parse(argc, argv, {});
  bench::header("Figure 7: active users and the control-traffic filter");

  sim::ScenarioConfig cfg;
  cfg.seed = 21;
  cfg.cells = {{20.0, 0.4}};  // busy 20 MHz cell: ~0.4 control users / sf
  sim::Scenario s{cfg};

  sim::UeSpec ue;  // our monitor-carrying device
  ue.cell_indices = {0};
  s.add_ue(ue);
  sim::FlowSpec fs;
  fs.algo = "pbe";
  fs.stop = 30 * util::kSecond;
  const int f = s.add_flow(fs);

  sim::BackgroundSpec bg;  // a few real data users
  bg.n_users = 5;
  bg.sessions_per_sec = 0.8;
  bg.rate_lo = 2e6;
  bg.rate_hi = 12e6;
  s.add_background(bg);

  // Sample the monitor's tracker every 40 ms.
  util::SampleSet raw_users, filtered_users;
  util::SampleSet activity_len_ms, mean_prbs;
  std::map<phy::Rnti, int> seen;

  // Messages per subframe (paper §7: <4 in >95% of subframes).
  util::SampleSet msgs_per_sf;
  decoder::BlindDecoder probe{phy::CellConfig{1, 20.0}};
  s.bs().add_pdcch_batch_observer([&](const std::vector<phy::PdcchSubframe>& sfs) {
    for (const auto& sf : sfs) {
      if (sf.cell_id == 1) {
        msgs_per_sf.add(static_cast<double>(probe.decode(sf).size()));
      }
    }
  });

  for (int ms = 40; ms <= 30000; ms += 40) {
    s.run_until(ms * util::kMillisecond);
    const auto& tracker = s.pbe_client(f)->monitor().tracker(1);
    raw_users.add(tracker.raw_users());
    filtered_users.add(tracker.data_users(0x101));
    for (const auto& a : tracker.activity()) {
      if (++seen[a.rnti] == 1) {  // record each user once, at first sight
        activity_len_ms.add(a.active_subframes);
        mean_prbs.add(a.average_prbs);
      }
    }
  }

  std::printf("\n  (a) active users in a 40 ms window (CDF deciles):\n");
  bench::print_cdf("    all detected users", raw_users);
  bench::print_cdf("    after Ta>1,Pa>4", filtered_users);
  std::printf("    means: %.1f raw -> %.2f filtered\n", raw_users.mean(),
              filtered_users.mean());

  std::printf("\n  (b) per-user activity (CDF deciles):\n");
  bench::print_cdf("    active length (sf)", activity_len_ms);
  bench::print_cdf("    mean occupied PRBs", mean_prbs);
  double four_prb_one_sf = 0;
  {
    int canonical = 0, total = 0;
    for (const auto& [rnti, cnt] : seen) (void)rnti, (void)cnt, ++total;
    // Recompute from the recorded first-sight samples.
    for (std::size_t i = 0; i < activity_len_ms.count(); ++i) {
      canonical += (activity_len_ms.samples()[i] <= 1.0 &&
                    mean_prbs.samples()[i] <= 4.0)
                       ? 1
                       : 0;
    }
    four_prb_one_sf = total ? 100.0 * canonical / total : 0;
  }
  std::printf("    %.1f%% of users: one subframe and <=4 PRBs "
              "(paper: ~68%% occupy exactly 4 PRBs for 1 subframe)\n",
              four_prb_one_sf);

  std::printf("\n  §7 control-channel load:\n");
  std::printf("    messages per subframe: p50=%.0f p95=%.0f p99=%.0f "
              "(paper: <4 in >95%% of subframes)\n",
              msgs_per_sf.percentile(50), msgs_per_sf.percentile(95),
              msgs_per_sf.percentile(99));
  int max_bits = 0;
  for (int fidx = 0; fidx < phy::kNumDciFormats; ++fidx) {
    max_bits = std::max(
        max_bits, phy::dci_message_bits(static_cast<phy::DciFormat>(fidx)));
  }
  std::printf("    largest control message: %d bits (paper: <70 bits)\n",
              max_bits);
  return 0;
}
