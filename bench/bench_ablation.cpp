// Ablations of PBE-CC's design choices (DESIGN.md §4) plus the §7
// extension knobs:
//   A. control-traffic filter (Ta > 1, Pa > 4) on/off;
//   B. cwnd gain — the §7 delay-for-throughput buffering trade-off;
//   C. cell fairness policy (fair-share vs proportional-fair vs weighted)
//      under unchanged PBE-CC senders;
//   D. monitor decode quality (extra control-channel BER);
//   E. endpoint measurement vs explicit network feedback (ABC oracle).
#include <functional>
#include <vector>

#include "bench/bench_common.h"
#include "sim/scenario.h"
#include "util/stats.h"

using namespace pbecc;

namespace {

struct Result {
  double tput = 0, p50 = 0, p95 = 0;
};

Result run_one(sim::ScenarioConfig cfg, sim::FlowSpec fs, bool busy_bg,
               double weight = 1.0) {
  sim::Scenario s{cfg};
  sim::UeSpec ue;
  ue.cell_indices = {0};
  ue.scheduling_weight = weight;
  s.add_ue(ue);
  if (busy_bg) {
    sim::BackgroundSpec bg;
    bg.n_users = 5;
    bg.sessions_per_sec = 0.8;
    s.add_background(bg);
  }
  fs.stop = fs.start + 12 * util::kSecond;
  const int f = s.add_flow(fs);
  s.run_until(fs.stop);
  s.stats(f).finish(fs.stop);
  return {s.stats(f).avg_tput_mbps(), s.stats(f).median_delay_ms(),
          s.stats(f).p95_delay_ms()};
}

sim::ScenarioConfig busy_cell(std::uint64_t seed = 211) {
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.cells = {{10.0, 0.4}};
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 1;
  util::parse(argc, argv, {bench::threads(threads)});
  par::ThreadPool pool(threads);

  // Every ablation point is an independent single-flow scenario. Build the
  // full run list up front (in the order the sections print), fan it out on
  // the pool once, then print each section from the ordered results.
  std::vector<std::function<Result()>> jobs;

  // A: filter on, filter off.
  {
    sim::FlowSpec on;
    on.algo = "pbe";
    sim::FlowSpec off = on;
    off.pbe_control_filter = false;
    jobs.push_back([on] { return run_one(busy_cell(), on, true); });
    jobs.push_back([off] { return run_one(busy_cell(), off, true); });
  }
  // B: five cwnd gains.
  const std::vector<double> gains = {1.0, 1.25, 1.5, 2.0, 3.0};
  for (const double g : gains) {
    jobs.push_back([g] {
      sim::FlowSpec fs;
      fs.algo = "pbe";
      fs.pbe_cwnd_gain = g;
      return run_one(busy_cell(212), fs, true);
    });
  }
  // C: two scheduler policies plus weighted fair-share.
  const std::vector<std::string> scheds = {"fair-share", "proportional-fair"};
  for (const auto& sched : scheds) {
    jobs.push_back([sched] {
      auto cfg = busy_cell(213);
      cfg.scheduler = sched;
      sim::FlowSpec fs;
      fs.algo = "pbe";
      return run_one(cfg, fs, true);
    });
  }
  jobs.push_back([] {
    sim::FlowSpec fs;
    fs.algo = "pbe";
    return run_one(busy_cell(213), fs, true, 2.0);
  });
  // D: four extra-BER levels.
  const std::vector<double> bers = {0.0, 0.01, 0.03, 0.06};
  for (const double ber : bers) {
    jobs.push_back([ber] {
      sim::FlowSpec fs;
      fs.algo = "pbe";
      fs.pbe_monitor_extra_ber = ber;
      return run_one(busy_cell(214), fs, true);
    });
  }
  // F: repetition vs convolutional PDCCH.
  for (const bool conv : {false, true}) {
    jobs.push_back([conv] {
      auto cfg = busy_cell(216);
      cfg.cells.front().convolutional_pdcch = conv;
      sim::FlowSpec fs;
      fs.algo = "pbe";
      return run_one(cfg, fs, true);
    });
  }
  // E: endpoint PBE vs ABC oracle.
  for (const char* algo : {"pbe", "abc"}) {
    jobs.push_back([algo] {
      sim::FlowSpec fs;
      fs.algo = algo;
      return run_one(busy_cell(215), fs, true);
    });
  }

  const auto results = pool.parallel_map(
      jobs.size(), [&](std::size_t j) { return jobs[j](); });
  std::size_t cur = 0;
  const auto next = [&]() -> const Result& { return results[cur++]; };

  bench::header("Ablation A: control-traffic filter (busy cell, 0.4 ctrl users/sf)");
  {
    const auto with = next();
    const auto without = next();
    std::printf("\n  filter ON :  %6.1f Mbit/s   p50 %6.1f ms   p95 %6.1f ms\n",
                with.tput, with.p50, with.p95);
    std::printf("  filter OFF:  %6.1f Mbit/s   p50 %6.1f ms   p95 %6.1f ms\n",
                without.tput, without.p50, without.p95);
    std::printf("  -> without the filter every parameter-update RNTI inflates N,\n"
                "     the fair-share estimate collapses, and throughput drops %.0f%%.\n",
                100.0 * (1.0 - without.tput / std::max(with.tput, 1e-9)));
  }

  bench::header("Ablation B: cwnd gain (inflight cap) — paper §7 buffering knob");
  std::printf("\n  gain   tput(Mbit/s)   p50(ms)   p95(ms)\n");
  for (const double g : gains) {
    const auto r = next();
    std::printf("  %4.2f   %12.1f   %7.1f   %7.1f\n", g, r.tput, r.p50, r.p95);
  }
  std::printf("  -> more inflight headroom buys throughput robustness against\n"
              "     HARQ jitter at the cost of queueing when capacity drops.\n");

  bench::header("Ablation C: cell fairness policy under PBE-CC (§7)");
  {
    std::printf("\n  policy               tput(Mbit/s)   p50(ms)   p95(ms)\n");
    for (const auto& sched : scheds) {
      const auto r = next();
      std::printf("  %-19s  %12.1f   %7.1f   %7.1f\n", sched.c_str(), r.tput,
                  r.p50, r.p95);
    }
    // Weighted: the same fair-share policy, our user at weight 2.
    const auto r = next();
    std::printf("  %-19s  %12.1f   %7.1f   %7.1f\n", "fair-share (w=2)", r.tput,
                r.p50, r.p95);
    std::printf("  -> PBE-CC's control law reaches equilibrium under each policy\n"
                "     (its Pa-tracking adapts to whatever the scheduler grants).\n");
  }

  bench::header("Ablation D: monitor decode quality (extra control-channel BER)");
  std::printf("\n  extra BER   tput(Mbit/s)   p50(ms)   p95(ms)\n");
  for (const double ber : bers) {
    const auto r = next();
    std::printf("  %9.2f   %12.1f   %7.1f   %7.1f\n", ber, r.tput, r.p50, r.p95);
  }
  std::printf("  -> lost control messages make the monitor under-credit its own\n"
              "     allocation Pa (and competitors' PRBs), so the Eqn 3 estimate\n"
              "     and throughput sag while delay stays low — the failure mode\n"
              "     is conservative, which is why the paper can afford an\n"
              "     imperfect blind decoder.\n");

  bench::header("Ablation F: control-channel coding (repetition vs 36.212 conv.)");
  {
    std::printf("\n  coding          tput(Mbit/s)   p50(ms)   p95(ms)\n");
    for (const bool conv : {false, true}) {
      const auto r = next();
      std::printf("  %-14s  %12.1f   %7.1f   %7.1f\n",
                  conv ? "convolutional" : "repetition", r.tput, r.p50, r.p95);
    }
    std::printf("  -> PBE-CC behaves the same over either control-channel\n"
                "     code; the srsLTE-style convolutional path costs more CPU\n"
                "     per blind decode (see bench_micro) for the same decisions.\n");
  }

  bench::header("Ablation E: endpoint measurement vs explicit network feedback");
  {
    const auto a = next();
    const auto b = next();
    std::printf("\n  PBE-CC (endpoint)  :  %6.1f Mbit/s   p50 %6.1f ms   p95 %6.1f ms\n",
                a.tput, a.p50, a.p95);
    std::printf("  ABC-style (oracle) :  %6.1f Mbit/s   p50 %6.1f ms   p95 %6.1f ms\n",
                b.tput, b.p50, b.p95);
    std::printf("  -> decoding the control channel at the endpoint is fully\n"
                "     competitive with explicit base-station signaling — Eqn 3\n"
                "     even captures instantaneously idle PRBs that a plain\n"
                "     fair-share advertisement misses — without modifying a\n"
                "     single cell (the paper's §1 position).\n");
  }
  return 0;
}
