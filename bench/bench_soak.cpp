// Long-horizon soak driver (DESIGN.md §10): runs the pipeline and MAC soak
// scenarios from src/sim/soak.h, prints their reports, and exits non-zero
// if either run recorded an invariant violation or a harness check failed.
//
// The CI soak-smoke job runs this at 100k / 20k subframes with
// -DPBECC_CHECK=ON and ASan; the acceptance run is the full default length.
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "check/check.h"
#include "sim/soak.h"
#include "tel/file.h"
#include "tel/sampler.h"

using namespace pbecc;

namespace {

constexpr long long kMaxSubframes = 1'000'000'000;

void print_report(const char* name, const sim::SoakReport& r, double wall_ms) {
  std::printf("\n--- %s: %s ---\n", name, r.ok() ? "PASS" : "FAIL");
  std::printf("  subframes            %lld  (%.1f k sf/s)\n",
              static_cast<long long>(r.subframes),
              r.subframes / wall_ms);  // k sf/s == sf/ms
  std::printf("  invariant violations %llu%s%s\n",
              static_cast<unsigned long long>(r.invariant_violations),
              r.violation_digest.empty() ? "" : "  ",
              r.violation_digest.c_str());
  std::printf("  churn=%llu handovers=%llu reconfigs=%llu decodes=%llu "
              "delivered=%llu\n",
              static_cast<unsigned long long>(r.churn_events),
              static_cast<unsigned long long>(r.handovers),
              static_cast<unsigned long long>(r.reconfigs),
              static_cast<unsigned long long>(r.decode_attempts),
              static_cast<unsigned long long>(r.delivered_packets));
  std::printf("  high-water: est_cells=%zu trk_users=%zu trk_hist=%zu "
              "ues=%zu ue_cells=%zu\n",
              r.max_estimator_cells, r.max_tracker_users,
              r.max_tracker_history, r.max_ues, r.max_ue_cells);
  std::printf("  max WindowedMean drift %.3e (bound 1e-9)\n", r.max_mean_drift);
  for (const auto& f : r.failures) std::printf("  FAIL: %s\n", f.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  sim::PipelineSoakConfig pcfg;
  sim::MacSoakConfig mcfg;
  std::string metrics_path, telemetry_path;
  bool abort_on_violation = false;
  util::parse(
      argc, argv,
      {util::whole("--subframes N", pcfg.subframes, 1, kMaxSubframes,
                   "pipeline soak length"),
       util::whole("--mac-subframes N", mcfg.subframes, 1, kMaxSubframes,
                   "MAC soak length"),
       util::text("--metrics FILE", metrics_path,
                  "write the merged soak report JSON (CI artifact)"),
       util::text("--telemetry FILE", telemetry_path,
                  "sample the pipeline soak into a .tsv.pbt telemetry "
                  "recording (est.*/decode.*/check.* series)"),
       util::flag("--abort", abort_on_violation,
                  "abort at the first invariant violation (debugging)")});
  check::set_abort_on_violation(abort_on_violation);

  std::unique_ptr<tel::Sampler> telemetry;
  if (!telemetry_path.empty()) {
    telemetry = std::make_unique<tel::Sampler>();
    pcfg.telemetry = telemetry.get();
  }

  bench::header("Soak: decode->fusion->tracking->estimation pipeline");
  std::printf("subframes=%lld cells=%d rnti_pool=%d (deep checks %s)\n",
              static_cast<long long>(pcfg.subframes), pcfg.n_cells,
              sim::kPipelineSoakRntiPool, check::kDeep ? "ON" : "off");
  bench::WallTimer pt;
  const sim::SoakReport prep = sim::run_pipeline_soak(pcfg);
  const double p_ms = pt.ms();
  print_report("pipeline soak", prep, p_ms);

  bench::header("Soak: base station + UE churn + handover storms");
  std::printf("subframes=%lld cells=%d fg=%d bg_pool=%d\n",
              static_cast<long long>(mcfg.subframes), mcfg.n_cells,
              sim::kMacSoakFgUes, sim::kMacSoakBgUePool);
  bench::WallTimer mt;
  const sim::SoakReport mrep = sim::run_mac_soak(mcfg);
  const double m_ms = mt.ms();
  print_report("mac soak", mrep, m_ms);

  if (!metrics_path.empty()) {
    FILE* f = std::fopen(metrics_path.c_str(), "w");
    if (!f) {
      std::perror("--metrics open");
      return 2;
    }
    std::fprintf(f, "{\"pipeline\": %s,\n \"mac\": %s}\n",
                 prep.to_json().c_str(), mrep.to_json().c_str());
    std::fclose(f);
  }

  if (telemetry) {
    std::string err;
    if (!tel::write_file(telemetry->recorder(), telemetry_path, &err)) {
      std::fprintf(stderr, "telemetry write failed: %s\n", err.c_str());
      return 2;
    }
    std::printf("telemetry: %llu samples in %zu series -> %s\n",
                static_cast<unsigned long long>(
                    telemetry->recorder().total_samples()),
                telemetry->recorder().series().size(), telemetry_path.c_str());
  }

  // One-line invariant summary across both soaks (check totals are reset
  // per soak, so sum the reports rather than re-reading the registry).
  const std::uint64_t violations =
      prep.invariant_violations + mrep.invariant_violations;
  if (violations == 0) {
    std::fprintf(stderr, "check: 0 invariant violations\n");
  } else {
    std::fprintf(stderr, "check: %llu invariant violations (%s%s%s)\n",
                 static_cast<unsigned long long>(violations),
                 prep.violation_digest.c_str(),
                 !prep.violation_digest.empty() && !mrep.violation_digest.empty()
                     ? "; "
                     : "",
                 mrep.violation_digest.c_str());
  }

  const bool ok = prep.ok() && mrep.ok();
  std::printf("\nsoak result: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
