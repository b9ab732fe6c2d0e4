// Chaos sweep: graceful degradation of the PBE feedback loop (DESIGN.md
// §8). Not a paper figure — this bench guards the robustness claim that
// PBE-CC *with* its degradation machinery never does worse than the
// algorithm it falls back to.
//
// Part 1 sweeps DCI-blackout intensity (fraction of each second in which
// the monitor decodes nothing) and compares PBE-CC against plain BBR on
// the same faulty link. PBE-CC's advantage should shrink as the feed
// degrades and bottom out at BBR-level — never below — because at 100%
// blackout the sender is simply running its fallback BBR.
//
// Part 2 checks the recovery deadline: a solid blackout window ends, and
// the sender must re-enter PRECISE within 500 ms (sim time) of the feed
// returning.
//
// Part 3 is the hybrid win-condition matrix (ISSUE 7 / DESIGN.md §13):
// every canned fault profile x {pbe, bbr, hybrid}. The hybrid
// (confidence-weighted PBE x delay-gradient blend) must deliver at least
// 0.95x the best single estimator's throughput at PBE-like tail delay on
// each chaos profile, and match PBE within 2% on the clean profile.
//
// Exits non-zero if any assertion fails (CI-friendly).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "bench/bench_common.h"
#include "fault/fault.h"
#include "pbe/pbe_sender.h"
#include "sim/location.h"
#include "sim/scenario.h"
#include "tel/file.h"
#include "tel/sampler.h"

using namespace pbecc;

namespace {

constexpr int kLocation = 2;  // 1-cell busy indoor: the paper's base case

sim::LocationRunResult run_faulty(const std::string& algo, double duty,
                                  util::Duration flow_len) {
  fault::FaultProfile profile;
  profile.blackout_duty = duty;
  profile.blackout_period = util::kSecond;
  profile.blackout_from = 0;
  return sim::run_location(sim::location(kLocation), algo, flow_len,
                           duty > 0 ? &profile : nullptr, /*fault_seed=*/3);
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 1, seconds = 12;
  std::string telemetry_path, chaos_json_path;
  util::parse(argc, argv,
              {bench::seconds(seconds), bench::threads(threads),
               util::text("--telemetry FILE", telemetry_path,
                          "sample the Part-2 recovery run into a .tsv.pbt "
                          "telemetry recording"),
               util::text("--chaos-json FILE", chaos_json_path,
                          "write the Part-3 matrix as JSON records for "
                          "bench_gate.py chaos")});
  par::ThreadPool pool(threads);
  const util::Duration flow_len = seconds * util::kSecond;
  bench::header("Chaos sweep: throughput/delay vs DCI-blackout intensity");

  // ---------------- Part 1: intensity sweep, PBE-CC vs plain BBR.
  // Every (algo, duty) point is an independent simulation: pool fan-out.
  const double duties[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  const std::vector<std::string> algos = {"pbe", "bbr", "hybrid"};
  struct Job {
    std::string algo;
    double duty;
  };
  std::vector<Job> jobs;
  for (const auto& algo : algos) {
    for (const double duty : duties) jobs.push_back({algo, duty});
  }
  const auto results = pool.parallel_map(jobs.size(), [&](std::size_t j) {
    return run_faulty(jobs[j].algo, jobs[j].duty, flow_len);
  });
  std::map<double, std::map<std::string, sim::LocationRunResult>> grid;
  std::printf("\n  %-8s %8s %12s %12s %12s\n", "algo", "duty", "tput(Mb)",
              "p50-d(ms)", "p95-d(ms)");
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& r = results[j];
    grid[jobs[j].duty][jobs[j].algo] = r;
    std::printf("  %-8s %8.2f %12.2f %12.1f %12.1f\n", jobs[j].algo.c_str(),
                jobs[j].duty, r.avg_tput_mbps, r.median_delay_ms,
                r.p95_delay_ms);
  }

  // Under total blackout PBE-CC *is* its fallback BBR (after a short
  // detection transient), so it must land in BBR's neighborhood.
  const double pbe_dead = grid[1.0]["pbe"].avg_tput_mbps;
  const double bbr_dead = grid[1.0]["bbr"].avg_tput_mbps;
  const double ratio = bbr_dead > 0 ? pbe_dead / bbr_dead : 1.0;
  std::printf("\n  100%% blackout: pbe %.2f Mbit/s vs bbr %.2f Mbit/s "
              "(ratio %.2f, need >= 0.90)\n", pbe_dead, bbr_dead, ratio);
  bool ok = ratio >= 0.90;

  // ---------------- Part 2: PRECISE re-entry deadline after the feed heals.
  bench::header("Recovery: PRECISE re-entry after a solid blackout window");
  {
    constexpr util::Time kHealAt = 5 * util::kSecond;
    fault::FaultProfile profile;
    profile.blackout_duty = 1.0;
    profile.blackout_from = 2 * util::kSecond;
    profile.blackout_until = kHealAt;

    sim::ScenarioConfig cfg = sim::scenario_config_for(sim::location(kLocation));
    cfg.fault = profile;
    cfg.fault_seed = 3;
    std::unique_ptr<tel::Sampler> telemetry;
    if (!telemetry_path.empty()) {
      telemetry = std::make_unique<tel::Sampler>();
      telemetry->recorder().set_meta("source", "bench_fault_recovery");
      cfg.capture.telemetry = telemetry.get();
    }
    sim::Scenario s{std::move(cfg)};
    s.add_ue(sim::ue_spec_for(sim::location(kLocation)));
    sim::FlowSpec flow;
    flow.algo = "pbe";
    flow.path.one_way_delay = 25 * util::kMillisecond;
    flow.start = 100 * util::kMillisecond;
    flow.stop = 8 * util::kSecond;
    const int f = s.add_flow(flow);

    auto& sender = dynamic_cast<pbe::PbeSender&>(s.sender(f).controller());

    bool saw_fallback = false;
    util::Time precise_again = -1;
    for (util::Time t = flow.start; t < flow.stop; t += 10 * util::kMillisecond) {
      s.run_until(t);
      const auto st = sender.degradation_state();
      if (t < kHealAt && st == pbe::DegradationState::kFallback) {
        saw_fallback = true;
      }
      if (saw_fallback && precise_again < 0 && t >= kHealAt &&
          st == pbe::DegradationState::kPrecise) {
        precise_again = t;
      }
    }
    const double recover_ms =
        precise_again >= 0
            ? static_cast<double>(precise_again - kHealAt) /
                  static_cast<double>(util::kMillisecond)
            : -1.0;
    std::printf("\n  fallback during blackout: %s\n",
                saw_fallback ? "yes" : "NO (fail)");
    std::printf("  PRECISE re-entry after heal: %s%.0f ms (need <= 500)\n",
                precise_again >= 0 ? "+" : "never; ", recover_ms);
    ok = ok && saw_fallback && precise_again >= 0 && recover_ms <= 500.0;

    if (telemetry) {
      std::string err;
      if (!tel::write_file(telemetry->recorder(), telemetry_path, &err)) {
        std::fprintf(stderr, "telemetry write failed: %s\n", err.c_str());
        return 2;
      }
      std::printf("  telemetry: %llu samples -> %s\n",
                  static_cast<unsigned long long>(
                      telemetry->recorder().total_samples()),
                  telemetry_path.c_str());
    }
  }

  // ---------------- Part 3: hybrid win-condition matrix over the canned
  // chaos profiles. One independent simulation per (profile, algo) cell.
  bench::header("Hybrid win conditions: canned profiles x {pbe, bbr, hybrid}");
  {
    constexpr std::uint64_t kChaosSeed = 1;
    const auto& profiles = fault::profile_names();
    const std::vector<std::string> chaos_algos = {"pbe", "bbr", "hybrid"};
    struct Cell {
      std::string profile;
      std::string algo;
    };
    std::vector<Cell> cells;
    for (const auto& p : profiles) {
      for (const auto& a : chaos_algos) cells.push_back({p, a});
    }
    const auto cell_results = pool.parallel_map(
        cells.size(), [&](std::size_t j) {
      const auto profile = fault::profile_by_name(cells[j].profile);
      return sim::run_location(sim::location(kLocation), cells[j].algo,
                               flow_len,
                               profile->active() ? &*profile : nullptr,
                               kChaosSeed);
    });
    std::map<std::string, std::map<std::string, sim::LocationRunResult>> m;
    std::printf("\n  %-16s %-8s %10s %10s %10s\n", "profile", "algo",
                "tput(Mb)", "p50-d(ms)", "p95-d(ms)");
    for (std::size_t j = 0; j < cells.size(); ++j) {
      const auto& r = cell_results[j];
      m[cells[j].profile][cells[j].algo] = r;
      std::printf("  %-16s %-8s %10.2f %10.1f %10.1f\n",
                  cells[j].profile.c_str(), cells[j].algo.c_str(),
                  r.avg_tput_mbps, r.median_delay_ms, r.p95_delay_ms);
    }

    // Win conditions (also re-derived from the JSON by bench_gate.py
    // `chaos`, so the CI artifact is auditable on its own):
    //   chaos profiles: hybrid tput >= 0.95 x max(pbe, bbr)
    //                   and hybrid p95 delay <= 1.1 x pbe p95;
    //   clean profile:  hybrid tput within 2% of pbe.
    std::printf("\n");
    for (const auto& p : profiles) {
      const auto& pbe = m[p]["pbe"];
      const auto& bbr = m[p]["bbr"];
      const auto& hyb = m[p]["hybrid"];
      bool cell_ok;
      if (p == "none") {
        cell_ok = hyb.avg_tput_mbps >= 0.98 * pbe.avg_tput_mbps;
        std::printf("  %-16s hybrid %.2f vs pbe %.2f Mbit/s "
                    "(need >= 0.98x) %s\n",
                    p.c_str(), hyb.avg_tput_mbps, pbe.avg_tput_mbps,
                    cell_ok ? "ok" : "FAIL");
      } else {
        const double floor =
            0.95 * std::max(pbe.avg_tput_mbps, bbr.avg_tput_mbps);
        const double delay_cap = 1.1 * pbe.p95_delay_ms;
        const bool tput_ok = hyb.avg_tput_mbps >= floor;
        const bool delay_ok = hyb.p95_delay_ms <= delay_cap;
        cell_ok = tput_ok && delay_ok;
        std::printf("  %-16s hybrid %.2f Mbit/s (need >= %.2f) %s, "
                    "p95 %.1f ms (need <= %.1f) %s\n",
                    p.c_str(), hyb.avg_tput_mbps, floor,
                    tput_ok ? "ok" : "FAIL", hyb.p95_delay_ms, delay_cap,
                    delay_ok ? "ok" : "FAIL");
      }
      ok = ok && cell_ok;
    }

    if (!chaos_json_path.empty()) {
      // Self-describing records, PR-6 JSON convention: schema_version
      // first, fixed key order, fault profile + seed inline so a chaos
      // artifact can be gated (and re-audited) with no side channel.
      FILE* f = std::fopen(chaos_json_path.c_str(), "w");
      if (!f) {
        std::perror("--chaos-json open");
        return 2;
      }
      std::fprintf(f, "[\n");
      for (std::size_t j = 0; j < cells.size(); ++j) {
        const auto& r = cell_results[j];
        std::fprintf(
            f,
            "  {\"schema_version\": 1, \"bench\": \"bench_fault\", "
            "\"part\": \"chaos\", \"fault_profile\": \"%s\", "
            "\"fault_seed\": %llu, \"algo\": \"%s\", "
            "\"flow_seconds\": %.1f, \"tput_mbps\": %.3f, "
            "\"p50_delay_ms\": %.2f, \"p95_delay_ms\": %.2f}%s\n",
            cells[j].profile.c_str(),
            static_cast<unsigned long long>(kChaosSeed),
            cells[j].algo.c_str(), util::to_seconds(flow_len),
            r.avg_tput_mbps, r.median_delay_ms, r.p95_delay_ms,
            j + 1 < cells.size() ? "," : "");
      }
      std::fprintf(f, "]\n");
      if (std::fclose(f) != 0) return 2;
      std::printf("\n  chaos matrix -> %s\n", chaos_json_path.c_str());
    }
  }

  std::printf("\n  %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
