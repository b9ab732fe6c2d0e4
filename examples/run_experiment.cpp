// Pantheon-style experiment runner: the paper evaluates algorithms by
// running each over the same emulated link and recording per-packet
// delays and windowed throughput (§6.1). This tool does the same from the
// command line and can emit machine-readable CSV for plotting.
//
//   run_experiment [options]
//     --algo NAME        pbe|abc|bbr|cubic|copa|verus|sprout|pcc|vivace|
//                        gcc|hybrid|all  (--cc is an alias)
//     --location IDX     location profile 0..39 (default 2)
//     --seconds N        flow length, 1..86400 (default 12)
//     --seed N           override the location's seed
//     --csv FILE         append one summary row per run to FILE
//     --timeseries FILE  write 100 ms window throughput series to FILE
//     --trace FILE         write the pbecc::obs event timeline as JSONL
//     --chrome-trace FILE  same timeline in Chrome trace_event format
//                          (load via chrome://tracing or ui.perfetto.dev)
//     --metrics FILE       write the counter/gauge/histogram registry as
//                          JSON; also enables the wall-clock profiler so
//                          prof.* histograms (blind decode, Viterbi, ...)
//                          are populated
//     --trace-sample N     keep 1 in N high-frequency events
//                          (1..1000000, default 1)
//     --fault-profile P    chaos schedule: none|blackout|flap|feedback-loss|
//                          handover-storm (default none)
//     --fault-seed N       fault schedule seed (default 1); same seed =>
//                          byte-identical fault schedule
//     --conv-pdcch         encode every cell's control channel with the
//                          36.212 convolutional code instead of repetition
//                          coding (exercises the Viterbi hot path; used to
//                          record the bench_replay decode corpus)
//     --nr SCS_KHZ         make the location's secondary carriers 5G NR
//                          cells at this subcarrier spacing (15|30|120 kHz;
//                          the primary stays LTE, so the run exercises
//                          mixed LTE+NR carrier aggregation; DESIGN.md §16)
//     --record FILE.pbt    capture the PBE measurement pipeline (PDCCH
//                          batches, window updates, estimator probes) into
//                          a binary trace; requires --algo pbe
//     --replay FILE.pbt    re-drive the decoder/estimator pipeline from a
//                          recorded trace instead of simulating; mutually
//                          exclusive with --record
//     --telemetry FILE     sample the run into a .tsv.pbt telemetry
//                          recording (estimate vs ground truth, flow state,
//                          decode health; see telemetry_tool). Works for
//                          live --algo pbe runs and for --replay (replay
//                          emits the same est.*/decode.* series)
//     --telemetry-interval MS  sampling cadence in sim-clock ms
//                              (1..60000, default 10)
//     --strict-checks      exit nonzero if any pbecc::check invariant
//                          violations were recorded
//     --help               print this option summary
//
//   ./build/examples/run_experiment --algo all --location 31 --csv out.csv
//   ./build/examples/run_experiment --trace out.jsonl --metrics metrics.json
//   ./build/examples/run_experiment --algo pbe --record run.pbt
//   ./build/examples/run_experiment --replay run.pbt
//
// Numeric values must be whole numbers in range; a malformed or
// out-of-range number, or an unknown option, exits 2. The whole run,
// blind decode included, executes on the calling thread.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cap/replay.h"
#include "cap/taps.h"
#include "cap/trace_reader.h"
#include "cap/trace_writer.h"
#include "check/check.h"
#include "fault/fault.h"
#include "nr/numerology.h"
#include "obs/obs.h"
#include "sim/algorithms.h"
#include "sim/location.h"
#include "tel/file.h"
#include "tel/sampler.h"
#include "util/cli.h"

using namespace pbecc;

namespace {

struct Options {
  std::string algo = "pbe";
  int location = 2;
  int seconds = 12;
  std::uint64_t seed = 0;  // 0 = location default
  std::string csv;
  std::string timeseries;
  std::string trace_jsonl;
  std::string trace_chrome;
  std::string metrics_json;
  std::uint32_t trace_sample = 1;
  std::string fault_profile = "none";
  std::uint64_t fault_seed = 1;
  std::string record;  // .pbt capture output
  std::string replay;  // .pbt replay input
  std::string telemetry;  // .tsv.pbt telemetry output
  int telemetry_interval_ms = 10;
  bool conv_pdcch = false;
  int nr_scs_khz = 0;  // 0 = all-LTE; 15/30/120 = NR secondaries
  bool strict_checks = false;
};

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: run_experiment [options]\n"
               "  --algo NAME        pbe|abc|bbr|cubic|copa|verus|sprout|pcc|"
               "vivace|gcc|hybrid|all (default pbe; --cc is an alias)\n"
               "  --location IDX     location profile 0..%d (default 2)\n"
               "  --seconds N        flow length, 1..86400 (default 12)\n"
               "  --seed N           override the location's seed\n"
               "  --csv FILE         append one summary row per run\n"
               "  --timeseries FILE  100 ms window throughput series\n"
               "  --trace FILE       pbecc::obs event timeline as JSONL\n"
               "  --chrome-trace FILE  same timeline, Chrome trace_event\n"
               "  --metrics FILE     counter/gauge/histogram registry JSON\n"
               "  --trace-sample N   keep 1 in N high-frequency events\n"
               "                     (1..1000000, default 1)\n"
               "  --fault-profile P  none|blackout|flap|feedback-loss|"
               "handover-storm\n"
               "  --fault-seed N     fault schedule seed (default 1)\n"
               "  --conv-pdcch       convolutional control coding on every\n"
               "                     cell (records a Viterbi decode corpus)\n"
               "  --nr SCS_KHZ       5G NR secondary carriers at 15|30|120\n"
               "                     kHz SCS (primary stays LTE: mixed CA)\n"
               "  --record FILE.pbt  capture the PBE pipeline into a binary\n"
               "                     trace (requires --algo pbe)\n"
               "  --replay FILE.pbt  re-drive the pipeline from a trace; no\n"
               "                     simulation runs (excludes --record)\n"
               "  --telemetry FILE   sample the run into a .tsv.pbt telemetry\n"
               "                     recording (live pbe runs and --replay)\n"
               "  --telemetry-interval MS  sampling cadence, sim-clock ms\n"
               "                     (1..60000, default 10)\n"
               "  --strict-checks    exit nonzero on any pbecc::check\n"
               "                     invariant violation\n"
               "  --help             this summary\n"
               "A malformed or out-of-range number, or an unknown option,\n"
               "exits 2.\n",
               sim::kNumLocations - 1);
}

// Seeds are 64-bit; a command-line seed stays in the signed range.
constexpr long long kMaxSeed = std::numeric_limits<long long>::max();

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto number = [&](const char* flag, long long lo, long long hi) {
      return util::whole_number_arg(flag, need(flag), lo, hi);
    };
    if (!std::strcmp(argv[i], "--algo")) {
      o.algo = need("--algo");
    } else if (!std::strcmp(argv[i], "--cc")) {
      o.algo = need("--cc");  // alias: congestion-control vocabulary
    } else if (!std::strcmp(argv[i], "--location")) {
      o.location =
          static_cast<int>(number("--location", 0, sim::kNumLocations - 1));
    } else if (!std::strcmp(argv[i], "--seconds")) {
      o.seconds = static_cast<int>(number("--seconds", 1, 86400));
    } else if (!std::strcmp(argv[i], "--seed")) {
      o.seed = static_cast<std::uint64_t>(number("--seed", 0, kMaxSeed));
    } else if (!std::strcmp(argv[i], "--csv")) {
      o.csv = need("--csv");
    } else if (!std::strcmp(argv[i], "--timeseries")) {
      o.timeseries = need("--timeseries");
    } else if (!std::strcmp(argv[i], "--trace")) {
      o.trace_jsonl = need("--trace");
    } else if (!std::strcmp(argv[i], "--chrome-trace")) {
      o.trace_chrome = need("--chrome-trace");
    } else if (!std::strcmp(argv[i], "--metrics")) {
      o.metrics_json = need("--metrics");
    } else if (!std::strcmp(argv[i], "--trace-sample")) {
      o.trace_sample =
          static_cast<std::uint32_t>(number("--trace-sample", 1, 1000000));
    } else if (!std::strcmp(argv[i], "--fault-profile")) {
      o.fault_profile = need("--fault-profile");
    } else if (!std::strcmp(argv[i], "--fault-seed")) {
      o.fault_seed =
          static_cast<std::uint64_t>(number("--fault-seed", 0, kMaxSeed));
    } else if (!std::strcmp(argv[i], "--conv-pdcch")) {
      o.conv_pdcch = true;
    } else if (!std::strcmp(argv[i], "--nr")) {
      o.nr_scs_khz = static_cast<int>(number("--nr", 15, 120));
    } else if (!std::strcmp(argv[i], "--record")) {
      o.record = need("--record");
    } else if (!std::strcmp(argv[i], "--replay")) {
      o.replay = need("--replay");
    } else if (!std::strcmp(argv[i], "--telemetry")) {
      o.telemetry = need("--telemetry");
    } else if (!std::strcmp(argv[i], "--telemetry-interval")) {
      o.telemetry_interval_ms =
          static_cast<int>(number("--telemetry-interval", 1, 60000));
    } else if (!std::strcmp(argv[i], "--strict-checks")) {
      o.strict_checks = true;
    } else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option %s (try --help)\n", argv[i]);
      std::exit(2);
    }
  }
  if (!o.record.empty() && !o.replay.empty()) {
    std::fprintf(stderr,
                 "--record and --replay are mutually exclusive: a run either "
                 "captures a live simulation or replays an existing trace\n");
    std::exit(2);
  }
  const bool pbe_pipeline = o.algo == "pbe" || o.algo == "hybrid";
  if (!o.record.empty() && !pbe_pipeline) {
    std::fprintf(stderr,
                 "--record captures the PBE measurement pipeline and needs "
                 "--algo pbe or hybrid (got '%s')\n",
                 o.algo.c_str());
    std::exit(2);
  }
  if (!o.telemetry.empty() && o.replay.empty() && !pbe_pipeline) {
    std::fprintf(stderr,
                 "--telemetry samples the PBE measurement pipeline and needs "
                 "--algo pbe or hybrid (got '%s')\n",
                 o.algo.c_str());
    std::exit(2);
  }
  if (!fault::profile_by_name(o.fault_profile)) {
    std::fprintf(stderr, "unknown fault profile '%s'; known:",
                 o.fault_profile.c_str());
    for (const auto& n : fault::profile_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
  // Every enum-valued flag is validated here, before any work starts, so a
  // misspelled value fails with the list of accepted ones instead of a
  // late throw deep inside the run.
  if (o.algo != "all") {
    bool known = false;
    for (const auto& a : sim::all_algorithms()) known |= (a == o.algo);
    for (const auto& a : sim::extra_algorithms()) known |= (a == o.algo);
    if (!known) {
      std::fprintf(stderr, "unknown algorithm '%s'; known:", o.algo.c_str());
      for (const auto& a : sim::all_algorithms()) {
        std::fprintf(stderr, " %s", a.c_str());
      }
      for (const auto& a : sim::extra_algorithms()) {
        std::fprintf(stderr, " %s", a.c_str());
      }
      std::fprintf(stderr, " all\n");
      std::exit(2);
    }
  }
  if (o.nr_scs_khz != 0 && !nr::valid_scs_khz(o.nr_scs_khz)) {
    std::fprintf(stderr,
                 "unknown --nr subcarrier spacing '%d'; known: 15 30 120\n",
                 o.nr_scs_khz);
    std::exit(2);
  }
  return o;
}

void run_one(const Options& o, const std::string& algo) {
  auto loc = sim::location(o.location);
  if (o.seed != 0) loc.seed = o.seed;
  loc.convolutional_pdcch = o.conv_pdcch;
  if (o.nr_scs_khz != 0) {
    loc.nr_numerology = nr::mu_of(nr::scs_from_khz(o.nr_scs_khz));
  }
  const auto profile = *fault::profile_by_name(o.fault_profile);

  std::unique_ptr<cap::TraceWriter> writer;
  cap::PipelineDigest digest;
  sim::CaptureOptions capture;
  if (!o.record.empty()) {
    writer = std::make_unique<cap::TraceWriter>(o.record);
    capture.writer = writer.get();
    capture.digest = &digest;
  }
  std::unique_ptr<tel::Sampler> telemetry;
  if (!o.telemetry.empty()) {
    tel::SamplerConfig tcfg;
    tcfg.interval = o.telemetry_interval_ms * util::kMillisecond;
    telemetry = std::make_unique<tel::Sampler>(tcfg);
    telemetry->recorder().set_meta("source", "live");
    telemetry->recorder().set_meta("location", std::to_string(o.location));
    telemetry->recorder().set_meta("fault_profile", o.fault_profile);
    capture.telemetry = telemetry.get();
  }

  const auto r = sim::run_location(loc, algo, o.seconds * util::kSecond,
                                   profile.active() ? &profile : nullptr,
                                   o.fault_seed, capture);

  if (telemetry) {
    std::string err;
    if (!tel::write_file(telemetry->recorder(), o.telemetry, &err)) {
      std::fprintf(stderr, "telemetry write failed: %s\n", err.c_str());
      std::exit(1);
    }
    std::printf("telemetry: %llu samples in %zu series -> %s\n",
                static_cast<unsigned long long>(
                    telemetry->recorder().total_samples()),
                telemetry->recorder().series().size(), o.telemetry.c_str());
  }

  if (writer) {
    if (!writer->close()) {
      std::fprintf(stderr, "record failed: %s\n", writer->error().c_str());
      std::exit(1);
    }
    std::printf("record: %llu records (%llu bytes) -> %s\n",
                static_cast<unsigned long long>(writer->records_written()),
                static_cast<unsigned long long>(writer->bytes_written()),
                o.record.c_str());
    std::printf("digest: obs=0x%016llx probe=0x%016llx\n",
                static_cast<unsigned long long>(digest.observation_digest()),
                static_cast<unsigned long long>(digest.probe_digest()));
  }

  std::printf("%-8s %s  tput %.2f Mbit/s  delay p50 %.1f / avg %.1f / "
              "p95 %.1f ms  CA=%s\n",
              algo.c_str(), loc.describe().c_str(), r.avg_tput_mbps,
              r.median_delay_ms, r.avg_delay_ms, r.p95_delay_ms,
              r.ca_triggered ? "yes" : "no");

  if (!o.csv.empty()) {
    FILE* f = std::fopen(o.csv.c_str(), "a");
    if (!f) {
      std::perror("csv open");
      std::exit(1);
    }
    // Header for new files.
    if (std::ftell(f) == 0) {
      std::fprintf(f, "algo,location,seconds,seed,tput_mbps,delay_p50_ms,"
                      "delay_avg_ms,delay_p95_ms,ca_triggered,"
                      "internet_state_fraction\n");
    }
    std::fprintf(f, "%s,%d,%d,%llu,%.3f,%.2f,%.2f,%.2f,%d,%.4f\n",
                 algo.c_str(), o.location, o.seconds,
                 static_cast<unsigned long long>(loc.seed), r.avg_tput_mbps,
                 r.median_delay_ms, r.avg_delay_ms, r.p95_delay_ms,
                 r.ca_triggered ? 1 : 0, r.internet_state_fraction);
    std::fclose(f);
  }

  if (!o.timeseries.empty()) {
    FILE* f = std::fopen(o.timeseries.c_str(), "a");
    if (!f) {
      std::perror("timeseries open");
      std::exit(1);
    }
    const auto wins = r.window_tputs.samples();
    for (std::size_t i = 0; i < wins.size(); ++i) {
      std::fprintf(f, "%s,%d,%.1f,%.3f\n", algo.c_str(), o.location,
                   0.1 * static_cast<double>(i), wins[i]);
    }
    std::fclose(f);
  }
}

// Replay a .pbt trace through the decoder/estimator pipeline; prints the
// same digest line a recording run does, so record→replay fidelity can be
// checked by comparing the two outputs.
int run_replay(const Options& o) {
  cap::TraceReader reader(o.replay);
  if (!reader.ok()) {
    std::fprintf(stderr, "replay: %s\n", reader.error().c_str());
    return 1;
  }
  cap::PipelineDigest digest;
  cap::ReplayDriver driver(reader.header(), &digest);
  std::unique_ptr<tel::Sampler> telemetry;
  if (!o.telemetry.empty()) {
    tel::SamplerConfig tcfg;
    tcfg.interval = o.telemetry_interval_ms * util::kMillisecond;
    telemetry = std::make_unique<tel::Sampler>(tcfg);
    telemetry->recorder().set_meta("source", "replay");
    telemetry->recorder().set_meta(
        "interval_us", std::to_string(telemetry->interval()));
    telemetry->pipeline().attach(&driver.monitor(), &driver.estimator());
    driver.set_batch_end_hook([p = &telemetry->pipeline()](std::int64_t sf) {
      p->on_batch_end(sf);
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto stats = driver.run(reader);
  const auto t1 = std::chrono::steady_clock::now();
  if (!reader.ok()) {
    std::fprintf(stderr, "replay stopped: %s\n", reader.error().c_str());
    return 1;
  }
  const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  std::printf("replay: %llu batches (%llu cell-subframes), %llu window sets, "
              "%llu probes in %.1f ms\n",
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.cell_subframes),
              static_cast<unsigned long long>(stats.window_sets),
              static_cast<unsigned long long>(stats.probes), ms);
  std::printf("digest: obs=0x%016llx probe=0x%016llx\n",
              static_cast<unsigned long long>(digest.observation_digest()),
              static_cast<unsigned long long>(digest.probe_digest()));
  if (telemetry) {
    std::string err;
    if (!tel::write_file(telemetry->recorder(), o.telemetry, &err)) {
      std::fprintf(stderr, "telemetry write failed: %s\n", err.c_str());
      return 1;
    }
    std::printf("telemetry: %llu samples in %zu series -> %s\n",
                static_cast<unsigned long long>(
                    telemetry->recorder().total_samples()),
                telemetry->recorder().series().size(), o.telemetry.c_str());
  }
  return 0;
}

// One-line invariant summary at exit; --strict-checks turns violations
// into a nonzero exit code (CI treats the run as failed).
int finish_checks(const Options& o) {
  const std::uint64_t v = check::violations();
  if (v == 0) {
    std::fprintf(stderr, "check: 0 invariant violations\n");
    return 0;
  }
  std::fprintf(stderr, "check: %llu invariant violations (%s)\n",
               static_cast<unsigned long long>(v),
               check::describe_violations().c_str());
  return o.strict_checks ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (!o.replay.empty()) {
    const int rc = run_replay(o);
    const int checks = finish_checks(o);
    return rc != 0 ? rc : checks;
  }

  const bool tracing = !o.trace_jsonl.empty() || !o.trace_chrome.empty();
  if (tracing) {
    obs::TraceConfig tc;
    tc.sample_every = o.trace_sample;
    obs::Trace::instance().start(tc);
  }
  // The profiler feeds prof.* histograms in the metrics report.
  if (!o.metrics_json.empty()) obs::set_profiling(true);

  if (o.algo == "all") {
    for (const auto& a : sim::all_algorithms()) run_one(o, a);
  } else {
    run_one(o, o.algo);
  }

  if (tracing) {
    obs::Trace& tr = obs::Trace::instance();
    tr.stop();
    if (!o.trace_jsonl.empty() && !tr.write_jsonl(o.trace_jsonl)) {
      std::fprintf(stderr, "failed to write %s\n", o.trace_jsonl.c_str());
      return 1;
    }
    if (!o.trace_chrome.empty() && !tr.write_chrome(o.trace_chrome)) {
      std::fprintf(stderr, "failed to write %s\n", o.trace_chrome.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %llu events kept (%llu overwritten, "
                         "%llu sampled out)\n",
                 static_cast<unsigned long long>(tr.size()),
                 static_cast<unsigned long long>(tr.dropped()),
                 static_cast<unsigned long long>(tr.sampled_out()));
  }
  if (!o.metrics_json.empty() &&
      !obs::Registry::instance().write_json(o.metrics_json)) {
    std::fprintf(stderr, "failed to write %s\n", o.metrics_json.c_str());
    return 1;
  }
  return finish_checks(o);
}
