// Capture/replay throughput bench (DESIGN.md §11): records a 3-cell busy
// location live (full MAC + network simulation), then replays the trace
// through the decoder/estimator pipeline alone. The replay rate is the
// pipeline's intrinsic decode throughput — it must beat the live rate,
// which also pays for scheduling, queues and packet events — and the run
// double-checks record→replay digest equality while it is at it.
//
//   bench_replay [--seconds N] [--json out.json]
//
// Corpus mode (DESIGN.md §14, the decode throughput gate):
//
//   bench_replay --record-corpus FILE.pbt [--seconds N]
//     Record a seed-pinned convolutional-PDCCH run (location 26, the
//     3-cell busy profile) into FILE.pbt, print its pipeline digests on a
//     `digest:` line and exit. The corpus is fully deterministic: same
//     build => byte-identical file.
//
//   bench_replay --corpus FILE.pbt [--json out]
//     Replay FILE.pbt once through a fresh pipeline, print the replay's
//     `digest:` line in the recorder's format (CI diffs the two) and
//     report decode throughput as the corpus_simd record. The corpus's
//     candidate count is fixed, so the record's floor in
//     bench/decode_baseline.json is an absolute candidates/s floor.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "cap/replay.h"
#include "cap/trace_reader.h"
#include "cap/trace_writer.h"
#include "sim/location.h"

using namespace pbecc;

namespace {

// The line CI diffs between --record-corpus and --corpus.
void print_digest(const cap::PipelineDigest& d) {
  std::printf("digest: obs=0x%016llx probe=0x%016llx\n",
              static_cast<unsigned long long>(d.observation_digest()),
              static_cast<unsigned long long>(d.probe_digest()));
}

// Seed-pinned recording of the Viterbi decode corpus: the same 3-cell busy
// location the live/replay bench uses, but with convolutional control
// coding so every candidate pays the full trellis walk.
int record_corpus(const char* path, util::Duration flow_len) {
  bench::header("Viterbi decode corpus recording");
  cap::TraceWriter writer(path);
  cap::PipelineDigest digest;
  sim::CaptureOptions capture{&writer, &digest};
  auto loc = sim::location(26);  // 3-cell busy indoor
  loc.convolutional_pdcch = true;
  const auto live = sim::run_location(loc, "pbe", flow_len, nullptr, 1, capture);
  if (!writer.close()) {
    std::fprintf(stderr, "corpus record failed: %s\n", writer.error().c_str());
    return 1;
  }
  std::printf("corpus: %llu records (%llu bytes) -> %s\n",
              static_cast<unsigned long long>(writer.records_written()),
              static_cast<unsigned long long>(writer.bytes_written()), path);
  std::printf("corpus: %llu decode candidates live\n",
              static_cast<unsigned long long>(live.decode_candidates));
  print_digest(digest);
  return 0;
}

// One replay of a recorded corpus through the full candidate pipeline.
int run_corpus(const char* path, bench::Reporter& reporter) {
  bench::header("Viterbi decode corpus throughput");
  cap::TraceReader reader(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "corpus open failed: %s\n", reader.error().c_str());
    return 1;
  }
  cap::PipelineDigest digest;
  cap::ReplayDriver driver(reader.header(), &digest);
  const bench::WallTimer timer;
  const auto stats = driver.run(reader);
  const double wall_ms = timer.ms();
  if (!reader.ok()) {
    std::fprintf(stderr, "corpus replay failed: %s\n", reader.error().c_str());
    return 1;
  }
  const std::uint64_t candidates = driver.monitor().total_candidates_tried();
  std::printf("corpus_simd %9.0f candidates/s  (%llu candidates, %.1f ms "
              "wall, %llu Viterbi runs, %llu early-aborted)\n",
              static_cast<double>(candidates) / (wall_ms / 1000.0),
              static_cast<unsigned long long>(candidates), wall_ms,
              static_cast<unsigned long long>(driver.monitor().total_lane_batches()),
              static_cast<unsigned long long>(driver.monitor().total_early_aborts()));
  print_digest(digest);
  reporter.add("corpus_simd", wall_ms,
               static_cast<double>(stats.cell_subframes) / (wall_ms / 1000.0),
               candidates);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("bench_replay", argc, argv);
  const util::Duration flow_len = bench::flow_seconds(argc, argv, 6);
  const char* record_path = nullptr;
  const char* corpus_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], "--record-corpus")) {
      record_path = argv[i + 1];
    } else if (!std::strcmp(argv[i], "--corpus")) {
      corpus_path = argv[i + 1];
    }
  }
  if (record_path != nullptr) return record_corpus(record_path, flow_len);
  if (corpus_path != nullptr) return run_corpus(corpus_path, reporter);

  const char* trace_path = "bench_replay.tmp.pbt";

  bench::header("PDCCH capture/replay throughput");

  // --- Live run, recording.
  cap::TraceWriter writer(trace_path);
  cap::PipelineDigest live_digest;
  sim::CaptureOptions capture{&writer, &live_digest};
  const auto loc = sim::location(26);  // 3-cell busy indoor
  const auto live = sim::run_location(loc, "pbe", flow_len, nullptr, 1, capture);
  if (!writer.close()) {
    std::fprintf(stderr, "record failed: %s\n", writer.error().c_str());
    return 1;
  }
  const double live_sf_per_sec =
      static_cast<double>(live.sim_cell_subframes) / (live.wall_ms / 1000.0);
  std::printf("live_sim: %.0f cell-subframes/s (%.1f ms wall, %llu bytes "
              "recorded)\n",
              live_sf_per_sec, live.wall_ms,
              static_cast<unsigned long long>(writer.bytes_written()));
  reporter.add("live_sim", live.wall_ms, live_sf_per_sec,
               live.decode_candidates);

  // --- Replay.
  cap::TraceReader reader(trace_path);
  if (!reader.ok()) {
    std::fprintf(stderr, "replay open failed: %s\n", reader.error().c_str());
    return 1;
  }
  cap::PipelineDigest replay_digest;
  cap::ReplayDriver driver(reader.header(), &replay_digest);
  const bench::WallTimer timer;
  const auto stats = driver.run(reader);
  const double replay_ms = timer.ms();
  if (!reader.ok()) {
    std::fprintf(stderr, "replay failed: %s\n", reader.error().c_str());
    return 1;
  }
  const double replay_sf_per_sec =
      static_cast<double>(stats.cell_subframes) / (replay_ms / 1000.0);
  std::printf("replay:   %.0f cell-subframes/s (%.1f ms wall, %llu batches)\n",
              replay_sf_per_sec, replay_ms,
              static_cast<unsigned long long>(stats.batches));
  reporter.add("replay", replay_ms, replay_sf_per_sec,
               driver.monitor().total_candidates_tried());

  std::remove(trace_path);

  // --- Fidelity gate: the replayed pipeline must be byte-identical.
  if (!(live_digest == replay_digest)) {
    std::fprintf(stderr,
                 "FIDELITY MISMATCH: live obs=0x%016llx probe=0x%016llx vs "
                 "replay obs=0x%016llx probe=0x%016llx\n",
                 static_cast<unsigned long long>(live_digest.observation_digest()),
                 static_cast<unsigned long long>(live_digest.probe_digest()),
                 static_cast<unsigned long long>(replay_digest.observation_digest()),
                 static_cast<unsigned long long>(replay_digest.probe_digest()));
    return 1;
  }
  std::printf("fidelity: digests match (obs=0x%016llx probe=0x%016llx), "
              "replay %.1fx faster than live\n",
              static_cast<unsigned long long>(live_digest.observation_digest()),
              static_cast<unsigned long long>(live_digest.probe_digest()),
              replay_sf_per_sec / live_sf_per_sec);
  return 0;
}
