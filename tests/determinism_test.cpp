// Determinism suite (DESIGN.md §9). A run decodes on the thread that
// steps its cells, so nothing inside one single-cluster run is parallel.
// What does run side by side are whole scenarios — the bench grids fan
// independent runs out on a par::ThreadPool — and those share process-wide
// state: the metrics registry, static counters, thread-local scratch. So
// every case below runs alone, and again concurrently with all the other
// cases on a 4-thread pool; the two results must agree field for field:
// FlowStats (every throughput window and delay sample) and blind-decode
// attempt counters. The trace sink is process-wide too, so these runs are
// untraced; DeterminismGolden pins the trace digest of serial runs. The
// shard lanes further down step one scenario's cell clusters on
// ScenarioConfig::shards worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cap/replay.h"
#include "cap/taps.h"
#include "cap/trace_reader.h"
#include "cap/trace_writer.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "par/thread_pool.h"
#include "sim/location.h"
#include "util/digest.h"

namespace pbecc {
namespace {

struct RunDigest {
  double tput = 0, avg_d = 0, p95_d = 0, p50_d = 0;
  bool ca = false;
  std::vector<double> wins, delays;
  std::uint64_t attempts = 0;
  std::uint64_t trace_digest = 0;  // 0 unless the run was traced
  std::uint64_t storm_handovers = 0;  // set by the shard lanes only

  bool operator==(const RunDigest&) const = default;
};

// Starts the process-wide trace when `traced`; finish_trace() collects it.
void start_trace(bool traced) {
  if (traced) obs::Trace::instance().start(obs::TraceConfig{});
}

void finish_trace(bool traced, RunDigest& d) {
  if (!traced) return;
  obs::Trace::instance().stop();
  d.trace_digest = obs::Trace::instance().digest();
  obs::Trace::instance().clear();
}

RunDigest run_once(const std::string& profile_name, std::uint64_t seed,
                   const std::string& algo = "pbe", bool traced = false) {
  start_trace(traced);
  auto loc = sim::location(3);  // 2-cell busy indoor
  loc.seed = seed;
  const auto profile = *fault::profile_by_name(profile_name);
  const auto r =
      sim::run_location(loc, algo, 3 * util::kSecond,
                        profile.active() ? &profile : nullptr, /*fault_seed=*/3);

  RunDigest d;
  d.tput = r.avg_tput_mbps;
  d.avg_d = r.avg_delay_ms;
  d.p95_d = r.p95_delay_ms;
  d.p50_d = r.median_delay_ms;
  d.ca = r.ca_triggered;
  d.wins.assign(r.window_tputs.samples().begin(),
                r.window_tputs.samples().end());
  d.delays.assign(r.delays_ms.samples().begin(), r.delays_ms.samples().end());
  d.attempts = r.decode_candidates;
  finish_trace(traced, d);
  return d;
}

// The convolutional-PDCCH decode path (Viterbi + span memoization) gets its
// own lane, since no location profile enables it.
RunDigest run_conv_once(bool traced = false) {
  start_trace(traced);
  sim::ScenarioConfig cfg;
  cfg.seed = 77;
  cfg.cells = {{10.0, 0.3}};
  cfg.cells.front().convolutional_pdcch = true;
  sim::Scenario s{cfg};
  sim::UeSpec ue;
  ue.cell_indices = {0};
  s.add_ue(ue);
  sim::BackgroundSpec bg;
  bg.n_users = 4;
  bg.sessions_per_sec = 0.8;
  s.add_background(bg);
  sim::FlowSpec fs;
  fs.algo = "pbe";
  fs.stop = 3 * util::kSecond;
  const int f = s.add_flow(fs);
  s.run_until(fs.stop);
  s.stats(f).finish(fs.stop);

  RunDigest d;
  d.tput = s.stats(f).avg_tput_mbps();
  d.avg_d = s.stats(f).avg_delay_ms();
  d.p95_d = s.stats(f).p95_delay_ms();
  d.p50_d = s.stats(f).median_delay_ms();
  const auto& wins = s.stats(f).window_tputs_mbps().samples();
  d.wins.assign(wins.begin(), wins.end());
  const auto& dl = s.stats(f).delays_ms().samples();
  d.delays.assign(dl.begin(), dl.end());
  d.attempts = s.pbe_client(f)->monitor().total_candidates_tried();
  finish_trace(traced, d);
  return d;
}

// Every case of the three concurrent-runs suites below.
struct Case {
  std::string profile;
  std::uint64_t seed = 0;
  std::string algo;  // "conv" = run_conv_once's scenario

  bool operator==(const Case&) const = default;
};

const std::vector<Case>& all_cases() {
  static const std::vector<Case> cases = [] {
    std::vector<Case> c;
    for (const char* profile : {"none", "blackout", "handover-storm"}) {
      for (const std::uint64_t seed : {11, 12, 13}) {
        c.push_back({profile, seed, "pbe"});
      }
    }
    for (const char* profile : {"none", "blackout"}) {
      for (const std::uint64_t seed : {11, 12}) {
        c.push_back({profile, seed, "hybrid"});
      }
    }
    c.push_back({"none", 0, "conv"});
    return c;
  }();
  return cases;
}

RunDigest run_case(const Case& c) {
  return c.algo == "conv" ? run_conv_once()
                          : run_once(c.profile, c.seed, c.algo);
}

// `c`'s result from one run of every case side by side on a 4-thread pool
// (the bench-grid pattern); the batch runs once per process.
const RunDigest& concurrent_result(const Case& c) {
  static const std::vector<RunDigest> results = [] {
    par::ThreadPool pool{4};
    return pool.parallel_map(all_cases().size(), [](std::size_t i) {
      return run_case(all_cases()[i]);
    });
  }();
  const auto& cases = all_cases();
  const auto it = std::find(cases.begin(), cases.end(), c);
  EXPECT_NE(it, cases.end());
  return results.at(static_cast<std::size_t>(it - cases.begin()));
}

void expect_concurrent_matches_serial(const Case& c) {
  const RunDigest serial = run_case(c);
  const RunDigest& concurrent = concurrent_result(c);
  EXPECT_GT(serial.attempts, 0u);

  // Field-by-field first so a failure names the divergent quantity...
  EXPECT_EQ(serial.tput, concurrent.tput);
  EXPECT_EQ(serial.avg_d, concurrent.avg_d);
  EXPECT_EQ(serial.p95_d, concurrent.p95_d);
  EXPECT_EQ(serial.p50_d, concurrent.p50_d);
  EXPECT_EQ(serial.ca, concurrent.ca);
  EXPECT_EQ(serial.attempts, concurrent.attempts);
  ASSERT_EQ(serial.wins.size(), concurrent.wins.size());
  for (std::size_t i = 0; i < serial.wins.size(); ++i) {
    ASSERT_EQ(serial.wins[i], concurrent.wins[i]) << "window " << i;
  }
  ASSERT_EQ(serial.delays.size(), concurrent.delays.size());
  for (std::size_t i = 0; i < serial.delays.size(); ++i) {
    ASSERT_EQ(serial.delays[i], concurrent.delays[i]) << "delay sample " << i;
  }
  // ...then the blanket check (also covers future RunDigest fields).
  EXPECT_TRUE(serial == concurrent);
}

class DeterminismTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(DeterminismTest, SerialAndParallelAreByteIdentical) {
  const auto& [profile, seed] = GetParam();
  expect_concurrent_matches_serial({profile, seed, "pbe"});
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByProfile, DeterminismTest,
    ::testing::Combine(::testing::Values("none", "blackout", "handover-storm"),
                       ::testing::Values(std::uint64_t{11}, std::uint64_t{12},
                                         std::uint64_t{13})),
    [](const auto& info) {
      return std::get<0>(info.param) == "handover-storm"
                 ? "handover_storm_" + std::to_string(std::get<1>(info.param))
                 : std::get<0>(info.param) + "_" +
                       std::to_string(std::get<1>(info.param));
    });

// Hybrid lane: the blended sender adds the delay-gradient sidecar, the
// divergence detector, and the claim re-seed to the ACK path — all of
// which must stay pure functions of the ACK stream (DESIGN.md §13). Same
// contract, across the profile that exercises the blend hardest (blackout
// drives the full weight swing) and the clean one.
class HybridDeterminismTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(HybridDeterminismTest, SerialAndParallelAreByteIdentical) {
  const auto& [profile, seed] = GetParam();
  expect_concurrent_matches_serial({profile, seed, "hybrid"});
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByProfile, HybridDeterminismTest,
    ::testing::Combine(::testing::Values("none", "blackout"),
                       ::testing::Values(std::uint64_t{11}, std::uint64_t{12})),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param));
    });

TEST(DeterminismConvolutional, SerialAndParallelAreByteIdentical) {
  expect_concurrent_matches_serial({"none", 0, "conv"});
}

// Golden values (DESIGN.md §14): the state-parallel Viterbi decoder must
// reproduce, bit for bit, what the scalar per-candidate decoder
// produced — goodput, p95 delay, candidate count and every delay
// sample — on the Viterbi pipeline and on the repetition-coded one (whose
// decode path adds the CRC-first screen). Equality between serial and
// concurrent runs is DeterminismConvolutional's and DeterminismTest's job.
// The trace digest is pinned only when obs instrumentation is compiled in.
struct Golden {
  double tput = 0;
  double p95_d = 0;
  std::uint64_t attempts = 0;
  std::uint64_t delay_digest = 0;
  std::uint64_t trace_digest = 0;
};

void expect_golden(const RunDigest& d, const Golden& g, const char* lane) {
  EXPECT_EQ(d.tput, g.tput) << lane;
  EXPECT_EQ(d.p95_d, g.p95_d) << lane;
  EXPECT_EQ(d.attempts, g.attempts) << lane;
  EXPECT_EQ(util::fnv1a64(d.delays.data(), d.delays.size() * sizeof(double)),
            g.delay_digest)
      << lane;
  EXPECT_EQ(d.trace_digest, g.trace_digest) << lane;
}

TEST(DeterminismGolden, BatchDecodeReproducesScalarResults) {
  expect_golden(run_conv_once(/*traced=*/true),
                {45.339719466301744, 42.154800000000002, 27996,
                 0x9d51114c9cdaa8a1ull, 0x36dcef7405076f3cull},
                "convolutional");
  expect_golden(run_once("none", 21, "pbe", /*traced=*/true),
                {47.159999999999997, 70.797999999999973, 39317,
                 0xed4da36b7674d987ull, 0xb1345341b5ed4275ull},
                "repetition");
}

// --- shard lanes (DESIGN.md §15) -----------------------------------------
//
// The sharded engine's contract: ScenarioConfig::shards is purely a
// parallelism knob (the number of worker threads stepping cell clusters).
// Cross-cluster effects (migrations, deliveries to migrated UEs) always go
// through the barrier mailbox, so FlowStats and the trace digest must be
// byte-identical for any shard count — clean and under a handover storm
// that drives UEs across cluster (= shard) boundaries every storm tick.

constexpr util::Time kShardStop = 3 * util::kSecond;

// `r` (stepped on `shards` workers) must equal the 1-shard `base` exactly.
void expect_same_run(const RunDigest& base, const RunDigest& r, int shards) {
  EXPECT_EQ(base.tput, r.tput) << "shards=" << shards;
  EXPECT_EQ(base.attempts, r.attempts) << "shards=" << shards;
  EXPECT_EQ(base.trace_digest, r.trace_digest) << "shards=" << shards;
  ASSERT_EQ(base.wins.size(), r.wins.size());
  for (std::size_t i = 0; i < base.wins.size(); ++i) {
    ASSERT_EQ(base.wins[i], r.wins[i])
        << "window " << i << " shards=" << shards;
  }
  ASSERT_EQ(base.delays.size(), r.delays.size());
  for (std::size_t i = 0; i < base.delays.size(); ++i) {
    ASSERT_EQ(base.delays[i], r.delays[i])
        << "delay sample " << i << " shards=" << shards;
  }
  EXPECT_TRUE(base == r) << "shards=" << shards;
}

sim::ScenarioConfig sharded_config(const std::string& profile,
                                   std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.cells.clear();
  for (int c = 0; c < 8; ++c) {
    sim::CellSpec cell;
    cell.bandwidth_mhz = 10.0;
    cell.control_users_per_subframe = 0.3;
    cell.cluster = c / 2;  // 4 clusters x 2 cells
    cfg.cells.push_back(cell);
  }
  cfg.fault = *fault::profile_by_name(profile);
  cfg.fault_seed = 3;
  return cfg;
}

// Three flows spanning the cluster graph: a stationary PBE flow (cluster
// 0; PBE cannot migrate), a gcc UE the storm bounces between clusters 1
// and 3, and a cubic UE that migrates into the PBE flow's own cluster —
// cross-shard arrivals perturbing the cell under measurement.
std::vector<int> populate_sharded(sim::Scenario& s) {
  sim::UeSpec u1;
  u1.id = 1;
  u1.cell_indices = {0, 1};
  s.add_ue(u1);
  sim::UeSpec u2;
  u2.id = 2;
  u2.cell_indices = {2};
  u2.serving_sets = {{6}, {3}, {7, 6}};  // cross, same-cluster, cross
  s.add_ue(u2);
  sim::UeSpec u3;
  u3.id = 3;
  u3.cell_indices = {4, 5};
  u3.serving_sets = {{1}, {5, 4}};
  s.add_ue(u3);

  sim::BackgroundSpec bg;
  bg.cell_index = 2;
  bg.n_users = 3;
  s.add_background(bg);
  sim::AggregateBackgroundSpec agg;
  agg.cell_index = 6;
  agg.traffic.sessions_per_sec = 30;
  s.add_background_aggregate(agg);

  std::vector<int> flows;
  const char* algos[] = {"pbe", "gcc", "cubic"};
  for (int i = 0; i < 3; ++i) {
    sim::FlowSpec fs;
    fs.algo = algos[i];
    fs.ue = static_cast<mac::UeId>(i + 1);
    fs.stop = kShardStop;
    flows.push_back(s.add_flow(fs));
  }
  return flows;
}

RunDigest run_sharded_once(const std::string& profile, std::uint64_t seed,
                           int shards) {
  obs::Trace::instance().start(obs::TraceConfig{});

  auto cfg = sharded_config(profile, seed);
  cfg.shards = shards;
  sim::Scenario s{cfg};
  const auto flows = populate_sharded(s);
  s.run_until(kShardStop);

  RunDigest d;
  for (int f : flows) {
    s.stats(f).finish(kShardStop);
    d.tput += s.stats(f).avg_tput_mbps();
    d.avg_d += s.stats(f).avg_delay_ms();
    const auto& wins = s.stats(f).window_tputs_mbps().samples();
    d.wins.insert(d.wins.end(), wins.begin(), wins.end());
    const auto& dl = s.stats(f).delays_ms().samples();
    d.delays.insert(d.delays.end(), dl.begin(), dl.end());
  }
  d.attempts = s.pbe_client(flows[0])->monitor().total_candidates_tried();
  // Final shard residence of the churned UEs is part of the contract too.
  d.p50_d = s.ue_domain(2);
  d.p95_d = s.ue_domain(3);
  d.storm_handovers = s.storm_handovers();

  obs::Trace::instance().stop();
  d.trace_digest = obs::Trace::instance().digest();
  obs::Trace::instance().clear();
  return d;
}

class ShardDeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardDeterminismTest, AnyShardAndThreadCountIsByteIdentical) {
  const auto& profile = GetParam();
  const auto base = run_sharded_once(profile, 11, 1);
  ASSERT_GT(base.wins.size(), 0u);
  ASSERT_GT(base.attempts, 0u);
  if (profile == "handover-storm") {
    // The lane must actually exercise cross-shard churn, not vacuously
    // pass on a quiet scenario.
    EXPECT_GT(base.storm_handovers, 0u);
  }
  for (const int shards : {2, 8}) {
    expect_same_run(base, run_sharded_once(profile, 11, shards), shards);
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, ShardDeterminismTest,
                         ::testing::Values("none", "handover-storm"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

// --- mixed LTE+NR lane (DESIGN.md §16) -----------------------------------
//
// Heterogeneous slot clocks add slot-major cell stepping, time-keyed
// fusion and per-cell tick arithmetic to everything the sharded engine
// already parallelizes. The contract is unchanged: FlowStats and the
// trace digest are byte-identical for any shard count, clean and under a
// handover storm whose serving sets cross the RAT boundary (LTE<->NR
// handovers).

sim::ScenarioConfig mixed_nr_config(const std::string& profile,
                                    std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.cells.clear();
  for (int c = 0; c < 8; ++c) {
    sim::CellSpec cell;
    cell.control_users_per_subframe = 0.3;
    cell.cluster = c / 2;  // 4 clusters x 2 cells
    if (c % 2 == 1) {
      // Odd cells are NR: alternate 30 kHz and 120 kHz so the set mixes
      // three clocks (1 ms / 500 us / 125 us); one mini-slot cell.
      cell.nr = true;
      cell.scs_khz = (c % 4 == 1) ? 30 : 120;
      cell.bandwidth_mhz = (c % 4 == 1) ? 20.0 : 50.0;
      cell.coreset_rbs = (c % 4 == 1) ? 48 : 30;
      cell.mini_slot = (c == 7);
    } else {
      cell.bandwidth_mhz = 10.0;
    }
    cfg.cells.push_back(cell);
  }
  cfg.fault = *fault::profile_by_name(profile);
  cfg.fault_seed = 3;
  return cfg;
}

// UE 1: a PBE flow aggregating an LTE+NR pair — the measurement pipeline
// itself fuses heterogeneous clocks. UEs 2 and 3 migrate across shards
// AND across RATs under the storm.
std::vector<int> populate_mixed_nr(sim::Scenario& s) {
  sim::UeSpec u1;
  u1.id = 1;
  u1.cell_indices = {0, 1};  // LTE primary + NR 30 kHz secondary
  s.add_ue(u1);
  sim::UeSpec u2;
  u2.id = 2;
  u2.cell_indices = {2};                 // LTE
  u2.serving_sets = {{7}, {3}, {6, 7}};  // NR cross, NR same-cluster, mixed
  s.add_ue(u2);
  sim::UeSpec u3;
  u3.id = 3;
  u3.cell_indices = {4, 5};      // mixed pair
  u3.serving_sets = {{1}, {4}};  // NR-only cross, LTE-only same-cluster
  s.add_ue(u3);

  sim::BackgroundSpec bg;
  bg.cell_index = 3;  // background load on a 120 kHz cell
  bg.n_users = 3;
  s.add_background(bg);

  std::vector<int> flows;
  const char* algos[] = {"pbe", "gcc", "cubic"};
  for (int i = 0; i < 3; ++i) {
    sim::FlowSpec fs;
    fs.algo = algos[i];
    fs.ue = static_cast<mac::UeId>(i + 1);
    fs.stop = kShardStop;
    flows.push_back(s.add_flow(fs));
  }
  return flows;
}

RunDigest run_mixed_nr_once(const std::string& profile, std::uint64_t seed,
                            int shards) {
  obs::Trace::instance().start(obs::TraceConfig{});

  auto cfg = mixed_nr_config(profile, seed);
  cfg.shards = shards;
  sim::Scenario s{cfg};
  const auto flows = populate_mixed_nr(s);
  s.run_until(kShardStop);

  RunDigest d;
  for (int f : flows) {
    s.stats(f).finish(kShardStop);
    d.tput += s.stats(f).avg_tput_mbps();
    d.avg_d += s.stats(f).avg_delay_ms();
    const auto& wins = s.stats(f).window_tputs_mbps().samples();
    d.wins.insert(d.wins.end(), wins.begin(), wins.end());
    const auto& dl = s.stats(f).delays_ms().samples();
    d.delays.insert(d.delays.end(), dl.begin(), dl.end());
  }
  d.attempts = s.pbe_client(flows[0])->monitor().total_candidates_tried();
  d.p50_d = s.ue_domain(2);
  d.p95_d = s.ue_domain(3);
  d.storm_handovers = s.storm_handovers();

  obs::Trace::instance().stop();
  d.trace_digest = obs::Trace::instance().digest();
  obs::Trace::instance().clear();
  return d;
}

class MixedNrDeterminismTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(MixedNrDeterminismTest, AnyShardAndThreadCountIsByteIdentical) {
  const auto& profile = GetParam();
  const auto base = run_mixed_nr_once(profile, 11, 1);
  ASSERT_GT(base.wins.size(), 0u);
  ASSERT_GT(base.attempts, 0u);
  expect_same_run(base, run_mixed_nr_once(profile, 11, 4), 4);
}

INSTANTIATE_TEST_SUITE_P(Profiles, MixedNrDeterminismTest,
                         ::testing::Values("none", "handover-storm"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

// A capture recorded from a fully sharded run must carry the same pipeline
// digest as a serial unsharded run, and replay to it byte-identically
// (pbecc::cap's tentpole guarantee, now from shards).
TEST(ShardDeterminism, ShardedRecordingReplaysByteIdentical) {
  const std::string path =
      ::testing::TempDir() + "determinism_shard_cap.pbt";

  cap::TraceWriter writer(path);
  cap::PipelineDigest live;
  {
    auto cfg = sharded_config("handover-storm", 11);
    cfg.shards = 8;
    cfg.capture = &writer;
    cfg.digest = &live;
    sim::Scenario s{cfg};
    populate_sharded(s);
    s.run_until(kShardStop);
  }
  ASSERT_TRUE(writer.close()) << writer.error();
  EXPECT_GT(live.observations(), 0u);
  EXPECT_GT(live.probes(), 0u);

  // Same scenario stepped serially: the tap stream itself must not depend
  // on the execution geometry.
  cap::PipelineDigest unsharded;
  {
    auto cfg = sharded_config("handover-storm", 11);
    cfg.digest = &unsharded;
    sim::Scenario s{cfg};
    populate_sharded(s);
    s.run_until(kShardStop);
  }
  EXPECT_TRUE(live == unsharded);

  cap::TraceReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  cap::PipelineDigest replayed;
  cap::ReplayDriver driver(reader.header(), &replayed);
  driver.run(reader);
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_TRUE(live == replayed);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pbecc
