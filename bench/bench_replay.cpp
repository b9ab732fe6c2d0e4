// Capture/replay bench (DESIGN.md §11): records a 3-cell busy location
// live (full MAC + network simulation), then replays the trace through the
// decoder/estimator pipeline alone. It prints both rates (the replay skips
// scheduling, queues and packet events, so it runs faster) and exits 1
// unless the replay reproduces the live run's pipeline digests.
//
// Corpus mode (DESIGN.md §14, the decode digest check): --record-corpus
// records a seed-pinned Viterbi decode corpus and --corpus replays one;
// CI diffs the `digest:` lines the two print.
#include <algorithm>
#include <cstdio>
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
int run_corpus(const char* path) {
  bench::header("Viterbi decode corpus throughput");
  cap::TraceReader reader(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "corpus open failed: %s\n", reader.error().c_str());
    return 1;
  }
  cap::PipelineDigest digest;
  cap::ReplayDriver driver(reader.header(), &digest);
  const bench::WallTimer timer;
  driver.run(reader);
  const double wall_ms = timer.ms();
  if (!reader.ok()) {
    std::fprintf(stderr, "corpus replay failed: %s\n", reader.error().c_str());
    return 1;
  }
  const std::uint64_t candidates = driver.monitor().total_candidates_tried();
  std::printf("corpus decode: %9.0f candidates/s  (%llu candidates, %.1f ms "
              "wall, %llu Viterbi runs, %llu early-aborted)\n",
              static_cast<double>(candidates) / (wall_ms / 1000.0),
              static_cast<unsigned long long>(candidates), wall_ms,
              static_cast<unsigned long long>(driver.monitor().total_lane_batches()),
              static_cast<unsigned long long>(driver.monitor().total_early_aborts()));
  print_digest(digest);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int seconds = 6;
  std::string record_path, corpus_path;
  const auto given = util::parse(argc, argv,
              {bench::seconds(seconds),
               util::text("--record-corpus FILE.pbt", record_path,
                          "record the seed-pinned, byte-identical decode "
                          "corpus into FILE.pbt and print its digest: line"),
               util::text("--corpus FILE.pbt", corpus_path,
                          "replay a corpus; print its digest: line and "
                          "candidates/s")});
  if (!record_path.empty() && !corpus_path.empty()) {
    std::fprintf(stderr,
                 "--record-corpus and --corpus are mutually exclusive: a run "
                 "either records a corpus or replays one\n");
    return 2;
  }
  if (!corpus_path.empty() &&
      std::find(given.begin(), given.end(), "--seconds") != given.end()) {
    std::fprintf(stderr,
                 "--corpus replays a recorded corpus and takes no --seconds: "
                 "the length is the recording's (--record-corpus)\n");
    return 2;
  }
  const util::Duration flow_len = seconds * util::kSecond;
  if (!record_path.empty()) return record_corpus(record_path.c_str(), flow_len);
  if (!corpus_path.empty()) return run_corpus(corpus_path.c_str());

  const char* trace_path = "bench_replay.tmp.pbt";

  bench::header("PDCCH capture/replay throughput");

  // --- Live run, recording.
  cap::TraceWriter writer(trace_path);
  cap::PipelineDigest live_digest;
  sim::CaptureOptions capture{&writer, &live_digest};
  const auto loc = sim::location(26);  // 3-cell busy indoor
  const bench::WallTimer live_timer;
  sim::run_location(loc, "pbe", flow_len, nullptr, 1, capture);
  const double live_ms = live_timer.ms();
  if (!writer.close()) {
    std::fprintf(stderr, "record failed: %s\n", writer.error().c_str());
    return 1;
  }
  // run_location steps every cell from 0 to 600 ms past the flow's length
  // (100 ms before the flow starts, 500 ms after it stops).
  const double live_cell_subframes =
      static_cast<double>((flow_len + 600 * util::kMillisecond) /
                          util::kSubframe) *
      static_cast<double>(sim::scenario_config_for(loc).cells.size());
  const double live_sf_per_sec = live_cell_subframes / (live_ms / 1000.0);
  std::printf("live_sim: %.0f cell-subframes/s (%.1f ms wall, %llu bytes "
              "recorded)\n",
              live_sf_per_sec, live_ms,
              static_cast<unsigned long long>(writer.bytes_written()));

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
