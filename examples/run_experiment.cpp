// Pantheon-style experiment runner: the paper evaluates algorithms by
// running each over the same emulated link and recording per-packet
// delays and windowed throughput (§6.1). This tool does the same from the
// command line and can emit machine-readable CSV for plotting.
//
//   ./build/examples/run_experiment --algo all --location 31 --csv out.csv
//   ./build/examples/run_experiment --trace out.jsonl --metrics metrics.json
//   ./build/examples/run_experiment --algo pbe --record run.pbt
//   ./build/examples/run_experiment --replay run.pbt
//
// --help lists the options. The whole run, blind decode included,
// executes on the calling thread.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
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
  std::optional<std::uint64_t> seed;  // unset = location default
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
  std::string nr_scs_khz;  // "" = all-LTE; "15"/"30"/"120" = NR secondaries
  bool strict_checks = false;
};

// Seeds are 64-bit; a command-line seed stays in the signed range.
constexpr long long kMaxSeed = std::numeric_limits<long long>::max();

Options parse(int argc, char** argv) {
  Options o;
  const auto given = util::parse(argc, argv, {
      util::choice("--algo NAME", o.algo,
                   {sim::all_algorithms(), sim::extra_algorithms(), {"all"}},
                   "algorithm to run; all runs the paper's eight in turn"),
      util::whole("--location IDX", o.location, 0, sim::kNumLocations - 1,
                  "location profile"),
      util::whole("--seconds N", o.seconds, 1, 86400, "flow length"),
      util::whole("--seed N", o.seed, 0, kMaxSeed,
                  "override the location's seed"),
      util::text("--csv FILE", o.csv, "append one summary row per run"),
      util::text("--timeseries FILE", o.timeseries,
                 "append the 100 ms window throughput series"),
      util::text("--trace FILE", o.trace_jsonl,
                 "write the pbecc::obs event timeline as JSONL"),
      util::text("--chrome-trace FILE", o.trace_chrome,
                 "write the same timeline in Chrome trace_event format "
                 "(chrome://tracing, ui.perfetto.dev)"),
      util::text("--metrics FILE", o.metrics_json,
                 "write the counter/gauge/histogram registry as JSON, with "
                 "the wall-clock profiler on to fill its prof.* histograms"),
      util::whole("--trace-sample N", o.trace_sample, 1, 1000000,
                  "keep 1 in N high-frequency trace events"),
      util::choice("--fault-profile P", o.fault_profile,
                   {fault::profile_names()}, "chaos schedule"),
      util::whole("--fault-seed N", o.fault_seed, 0, kMaxSeed,
                  "fault schedule seed; the same seed gives a byte-identical "
                  "schedule"),
      util::flag("--conv-pdcch", o.conv_pdcch,
                 "encode every cell's control channel with the 36.212 "
                 "convolutional code instead of repetition coding (records "
                 "the bench_replay decode corpus)"),
      util::choice("--nr SCS_KHZ", o.nr_scs_khz, {{"15", "30", "120"}},
                   "make the secondary carriers 5G NR cells (DESIGN.md "
                   "§16) at this subcarrier spacing in kHz; the primary "
                   "stays LTE, so carrier aggregation mixes LTE and NR"),
      util::text("--record FILE.pbt", o.record,
                 "capture the PBE measurement pipeline (PDCCH batches, "
                 "window updates, estimator probes) into a binary trace; "
                 "needs --algo pbe or hybrid"),
      util::text("--replay FILE.pbt", o.replay,
                 "re-drive the decoder/estimator pipeline from a recorded "
                 "trace instead of simulating; takes no option but "
                 "--telemetry, --telemetry-interval and --strict-checks"),
      util::text("--telemetry FILE", o.telemetry,
                 "sample the run into a .tsv.pbt telemetry recording "
                 "(see telemetry_tool); needs --algo pbe or hybrid, or "
                 "--replay"),
      util::whole("--telemetry-interval MS", o.telemetry_interval_ms, 1,
                  60000, "telemetry sampling cadence in sim-clock ms"),
      util::flag("--strict-checks", o.strict_checks,
                 "exit 1 if any pbecc::check invariant was violated"),
  });
  if (!o.record.empty() && !o.replay.empty()) {
    std::fprintf(stderr,
                 "--record and --replay are mutually exclusive: a run either "
                 "captures a live simulation or replays an existing trace\n");
    std::exit(2);
  }
  if (!o.replay.empty()) {
    // A replay re-drives the recorded pipeline: what shaped the live run
    // is in the trace, and no other option reaches run_replay.
    const std::vector<std::string> replay_reads = {
        "--replay", "--telemetry", "--telemetry-interval", "--strict-checks"};
    for (const auto& name : given) {
      if (std::find(replay_reads.begin(), replay_reads.end(), name) ==
          replay_reads.end()) {
        std::fprintf(stderr,
                     "--replay ignores %s: a replay takes no option but "
                     "--telemetry, --telemetry-interval and --strict-checks\n",
                     name.c_str());
        std::exit(2);
      }
    }
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
  return o;
}

void run_one(const Options& o, const std::string& algo, obs::Trace* trace) {
  auto loc = sim::location(o.location);
  if (o.seed) loc.seed = *o.seed;
  loc.convolutional_pdcch = o.conv_pdcch;
  if (!o.nr_scs_khz.empty()) {
    loc.nr_numerology = nr::mu_of(nr::scs_from_khz(std::stoi(o.nr_scs_khz)));
  }
  const auto profile = *fault::profile_by_name(o.fault_profile);

  std::unique_ptr<cap::TraceWriter> writer;
  cap::PipelineDigest digest;
  sim::CaptureOptions capture;
  capture.trace = trace;
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

  // One timeline for every run, so `--algo all` traces them in turn.
  std::unique_ptr<obs::Trace> trace;
  if (!o.trace_jsonl.empty() || !o.trace_chrome.empty()) {
    obs::TraceConfig tc;
    tc.sample_every = o.trace_sample;
    trace = std::make_unique<obs::Trace>(tc);
  }
  // The profiler feeds prof.* histograms in the metrics report.
  if (!o.metrics_json.empty()) obs::set_profiling(true);

  if (o.algo == "all") {
    for (const auto& a : sim::all_algorithms()) run_one(o, a, trace.get());
  } else {
    run_one(o, o.algo, trace.get());
  }

  if (trace) {
    const obs::Trace& tr = *trace;
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
