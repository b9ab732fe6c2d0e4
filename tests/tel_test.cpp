// pbecc::tel test suite (DESIGN.md §12): Recorder semantics (typed series,
// ring bound, deterministic digest/exports), .tsv.pbt round-trips with
// fail-closed truncation/corruption behaviour, pipeline-sampler cadence,
// summary/diff analysis logic, and the tentpole guarantees — a recording
// and its replay export byte-identical pipeline series, and telemetry is
// byte-identical across decode thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cap/replay.h"
#include "cap/trace_reader.h"
#include "cap/trace_writer.h"
#include "pbe/capacity_estimator.h"
#include "sim/location.h"
#include "tel/analyze.h"
#include "tel/file.h"
#include "tel/sampler.h"
#include "tel/series.h"

namespace pbecc {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "tel_test_" + name;
}

// --- Recorder ------------------------------------------------------------

TEST(TelRecorder, TypedAppendAndLookup) {
  tel::Recorder rec;
  rec.append_f64("a.rate", "bps", 1000, 5.5);
  rec.append_f64("a.rate", "bps", 2000, 6.5);
  rec.append_i64("b.count", "count", 1000, 3);

  ASSERT_EQ(rec.series().size(), 2u);
  const tel::Series* a = rec.find("a.rate");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->kind, tel::ValueKind::kF64);
  ASSERT_EQ(a->size(), 2u);
  EXPECT_EQ(a->t[1], 2000);
  EXPECT_DOUBLE_EQ(a->f64[1], 6.5);
  EXPECT_DOUBLE_EQ(a->value(1), 6.5);

  const tel::Series* b = rec.find("b.count");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->kind, tel::ValueKind::kI64);
  EXPECT_EQ(b->i64[0], 3);
  EXPECT_EQ(rec.total_samples(), 3u);
  EXPECT_EQ(rec.find("missing"), nullptr);
}

TEST(TelRecorder, KindConflictIgnoredAndCounted) {
  tel::Recorder rec;
  rec.append_f64("x", "bps", 1000, 1.0);
  rec.append_i64("x", "bps", 2000, 2);  // conflicting kind: dropped
  EXPECT_EQ(rec.kind_conflicts(), 1u);
  const tel::Series* x = rec.find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->size(), 1u);
  EXPECT_EQ(x->kind, tel::ValueKind::kF64);
}

TEST(TelRecorder, RingBoundDropsOldestHalf) {
  tel::Recorder rec(8);
  for (int i = 0; i < 9; ++i) {
    rec.append_i64("s", "count", i * 10, i);
  }
  const tel::Series* s = rec.find("s");
  ASSERT_NE(s, nullptr);
  // At the 9th append the series was full (8), dropped its oldest half,
  // then appended: samples 4..8 remain.
  ASSERT_EQ(s->size(), 5u);
  EXPECT_EQ(s->i64.front(), 4);
  EXPECT_EQ(s->i64.back(), 8);
  EXPECT_EQ(s->t.front(), 40);
}

TEST(TelRecorder, DigestIsOrderAndValueSensitive) {
  tel::Recorder a, b, c;
  a.set_meta("seed", "1");
  b.set_meta("seed", "1");
  c.set_meta("seed", "1");
  a.append_f64("s", "bps", 1000, 1.0);
  b.append_f64("s", "bps", 1000, 1.0);
  c.append_f64("s", "bps", 1000, 1.0000001);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
  b.set_meta("extra", "x");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(TelRecorder, ExportsAreDeterministicAndShaped) {
  tel::Recorder rec;
  rec.set_meta("algo", "pbe");
  rec.append_f64("z.rate", "bps", 1000, 1.5);
  rec.append_i64("a.count", "count", 2000, 7);

  const std::string json = rec.to_json();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"algo\":\"pbe\""), std::string::npos);
  // Series are sorted by name: a.count before z.rate.
  EXPECT_LT(json.find("a.count"), json.find("z.rate"));
  EXPECT_EQ(json, rec.to_json());

  const std::string csv = rec.to_csv();
  EXPECT_NE(csv.find("series,unit,t_us,value"), std::string::npos);
  EXPECT_NE(csv.find("a.count,count,2000,7"), std::string::npos);
}

// --- .tsv.pbt file format ------------------------------------------------

tel::Recorder sample_recording() {
  tel::Recorder rec;
  rec.set_meta("algo", "pbe");
  rec.set_meta("seed", "42");
  for (int i = 0; i < 200; ++i) {
    const util::Time t = (i + 1) * 10 * util::kMillisecond;
    rec.append_f64("est.cell1.cf_bits_sf", "bits/sf", t, 35000.0 + 13.5 * i);
    rec.append_f64("truth.cell1.fair_bits_sf", "bits/sf", t,
                   36000.0 - 7.25 * i);
    rec.append_i64("check.violations", "count", t, i / 50);
    rec.append_i64("pbe.degradation_state", "state", t, i < 100 ? 0 : 1);
  }
  return rec;
}

TEST(TelFile, RoundTripPreservesEverything) {
  const tel::Recorder rec = sample_recording();
  const auto bytes = tel::encode(rec);

  tel::Recorder back;
  std::string err;
  ASSERT_TRUE(tel::decode(bytes.data(), bytes.size(), &back, &err)) << err;
  EXPECT_EQ(back.digest(), rec.digest());
  EXPECT_EQ(back.meta(), rec.meta());
  ASSERT_EQ(back.series().size(), rec.series().size());
  const tel::Series* s = back.find("est.cell1.cf_bits_sf");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->size(), 200u);
  EXPECT_DOUBLE_EQ(s->f64[7], 35000.0 + 13.5 * 7);
}

TEST(TelFile, FileRoundTrip) {
  const tel::Recorder rec = sample_recording();
  const std::string path = tmp_path("roundtrip.tsv.pbt");
  std::string err;
  ASSERT_TRUE(tel::write_file(rec, path, &err)) << err;
  tel::Recorder back;
  ASSERT_TRUE(tel::read_file(path, &back, &err)) << err;
  EXPECT_EQ(back.digest(), rec.digest());
  std::remove(path.c_str());
}

TEST(TelFile, TruncationAtEveryByteFailsClosed) {
  const auto bytes = tel::encode(sample_recording());
  // Every strict prefix must decode to an error, never to a silently
  // shortened recording. Step through the file to keep runtime sane.
  for (std::size_t len = 0; len < bytes.size();
       len += (len < 64 ? 1 : 97)) {
    tel::Recorder back;
    std::string err;
    EXPECT_FALSE(tel::decode(bytes.data(), len, &back, &err))
        << "prefix of " << len << " bytes decoded";
    EXPECT_FALSE(err.empty());
  }
}

TEST(TelFile, BitFlipsFailClosed) {
  const auto bytes = tel::encode(sample_recording());
  // CRC framing: flipping any payload byte is detected. Sample positions
  // across the whole file.
  for (std::size_t pos = 8; pos < bytes.size(); pos += 211) {
    auto corrupted = bytes;
    corrupted[pos] ^= 0x40;
    tel::Recorder back;
    std::string err;
    EXPECT_FALSE(tel::decode(corrupted.data(), corrupted.size(), &back, &err))
        << "flip at " << pos << " decoded";
  }
}

TEST(TelFile, BadMagicAndVersionRejected) {
  auto bytes = tel::encode(sample_recording());
  {
    auto bad = bytes;
    bad[0] = 'X';
    tel::Recorder back;
    std::string err;
    EXPECT_FALSE(tel::decode(bad.data(), bad.size(), &back, &err));
  }
  {
    auto bad = bytes;
    bad[4] = 0xEE;  // container version
    tel::Recorder back;
    std::string err;
    EXPECT_FALSE(tel::decode(bad.data(), bad.size(), &back, &err));
  }
}

// --- sampler cadence -----------------------------------------------------

TEST(TelSampler, SamplesOnIntervalBoundaries) {
  tel::Recorder rec;
  tel::PipelineSampler sampler(&rec, 10 * util::kMillisecond);
  pbe::CapacityEstimator est;
  sampler.attach(nullptr, &est);

  // One batch per subframe, 100 subframes: samples land at exactly
  // t = 10 ms, 20 ms, ... (the estimator `now` convention).
  for (std::int64_t sf = 0; sf < 100; ++sf) sampler.on_batch_end(sf);

  const tel::Series* s = rec.find("est.cf_bits_sf");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->size(), 10u);
  for (std::size_t i = 0; i < s->size(); ++i) {
    EXPECT_EQ(s->t[i], static_cast<util::Time>(i + 1) * 10 *
                           util::kMillisecond);
  }
}

TEST(TelSampler, SparseBatchesSampleAtFirstBoundaryAfterGap) {
  tel::Recorder rec;
  tel::PipelineSampler sampler(&rec, 10 * util::kMillisecond);
  pbe::CapacityEstimator est;
  sampler.attach(nullptr, &est);

  sampler.on_batch_end(4);   // t=5ms  < 10ms: no sample
  sampler.on_batch_end(14);  // t=15ms >= 10ms: sample at 15ms
  sampler.on_batch_end(15);  // t=16ms < next boundary 20ms: no sample
  sampler.on_batch_end(47);  // t=48ms >= 20ms: sample at 48ms

  const tel::Series* s = rec.find("est.cf_bits_sf");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->size(), 2u);
  EXPECT_EQ(s->t[0], 15 * util::kMillisecond);
  EXPECT_EQ(s->t[1], 48 * util::kMillisecond);
}

// --- analysis ------------------------------------------------------------

TEST(TelAnalyze, ErrorStatsJoinOnEqualTimestamps) {
  tel::Recorder rec;
  // 2 s of 10 ms samples; estimate = truth * 1.10 after warmup.
  for (int i = 1; i <= 200; ++i) {
    const util::Time t = i * 10 * util::kMillisecond;
    rec.append_f64("truth.cell1.fair_bits_sf", "bits/sf", t, 10000.0);
    rec.append_f64("est.cell1.cf_bits_sf", "bits/sf", t, 11000.0);
  }
  tel::AnalyzeConfig cfg;
  cfg.warmup = util::kSecond;
  const auto s = tel::summarize(rec, cfg);
  ASSERT_EQ(s.cells.size(), 1u);
  EXPECT_EQ(s.cells[0].cell, "1");
  // Joined samples at-or-after the 1 s warmup: t = 1000, 1010, ... 2000 ms.
  EXPECT_EQ(s.cells[0].err.n, 101u);
  EXPECT_NEAR(s.cells[0].err.p50_rel, 0.10, 1e-9);
  EXPECT_NEAR(s.cells[0].err.p95_rel, 0.10, 1e-9);
  EXPECT_NEAR(s.cells[0].err.p95_abs, 1000.0, 1e-6);
}

TEST(TelAnalyze, DwellTimesAndTransitions) {
  tel::Recorder rec;
  for (int i = 0; i < 300; ++i) {
    const util::Time t = (i + 1) * 10 * util::kMillisecond;
    const std::int64_t st = i < 100 ? 0 : (i < 200 ? 1 : 2);
    rec.append_i64("pbe.degradation_state", "state", t, st);
  }
  const auto s = tel::summarize(rec);
  ASSERT_TRUE(s.has_dwell);
  EXPECT_NEAR(s.dwell.precise_s, 1.0, 0.02);
  EXPECT_NEAR(s.dwell.degraded_s, 1.0, 0.02);
  EXPECT_NEAR(s.dwell.fallback_s, 1.0, 0.02);
  EXPECT_EQ(s.dwell.transitions, 2u);
}

TEST(TelAnalyze, DiffFlagsMeanShiftAndCountMismatch) {
  tel::Recorder a, b;
  a.set_meta("interval_us", "10000");
  b.set_meta("interval_us", "10000");
  for (int i = 0; i < 50; ++i) {
    const util::Time t = (i + 1) * 10 * util::kMillisecond;
    a.append_f64("same", "bps", t, 100.0);
    b.append_f64("same", "bps", t, 100.0);
    a.append_f64("shifted", "bps", t, 100.0);
    b.append_f64("shifted", "bps", t, 103.0);  // +3% > 1% threshold
    a.append_i64("short", "count", t, 1);
    if (i < 40) b.append_i64("short", "count", t, 1);
    a.append_f64("gone", "bps", t, 1.0);
    b.append_f64("born", "bps", t, 1.0);
  }
  const auto d = tel::diff(a, b);
  EXPECT_FALSE(d.schema_mismatch);
  EXPECT_TRUE(d.regression());
  bool same_ok = false, shifted_bad = false, short_bad = false,
       gone_bad = false, born_bad = false;
  for (const auto& delta : d.deltas) {
    if (delta.name == "same") same_ok = !delta.flagged;
    if (delta.name == "shifted") shifted_bad = delta.flagged;
    if (delta.name == "short") short_bad = delta.flagged;
    if (delta.name == "gone") gone_bad = delta.flagged;
    if (delta.name == "born") born_bad = delta.flagged;
  }
  EXPECT_TRUE(same_ok);
  EXPECT_TRUE(shifted_bad);
  EXPECT_TRUE(short_bad);
  EXPECT_TRUE(gone_bad);
  EXPECT_TRUE(born_bad);
}

TEST(TelAnalyze, IdenticalRunsDiffClean) {
  const tel::Recorder a = sample_recording();
  const tel::Recorder b = sample_recording();
  const auto d = tel::diff(a, b);
  EXPECT_FALSE(d.regression());
  EXPECT_EQ(d.flagged, 0u);
}

TEST(TelAnalyze, IntervalMetaMismatchIsSchemaMismatch) {
  tel::Recorder a, b;
  a.set_meta("interval_us", "10000");
  b.set_meta("interval_us", "20000");
  a.append_f64("s", "bps", 1000, 1.0);
  b.append_f64("s", "bps", 1000, 1.0);
  const auto d = tel::diff(a, b);
  EXPECT_TRUE(d.schema_mismatch);
  EXPECT_TRUE(d.regression());
}

// --- end-to-end byte-identity guarantees ---------------------------------

// Filter a recording down to the pipeline-driven series (the ones a replay
// can reproduce without a simulator).
std::uint64_t pipeline_series_digest(const tel::Recorder& rec) {
  tel::Recorder filtered;
  for (const auto& [name, s] : rec.series()) {
    if (name.rfind("est.", 0) != 0 && name.rfind("decode.", 0) != 0) continue;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s.kind == tel::ValueKind::kF64) {
        filtered.append_f64(name, s.unit, s.t[i], s.f64[i]);
      } else {
        filtered.append_i64(name, s.unit, s.t[i], s.i64[i]);
      }
    }
  }
  return filtered.digest();
}

TEST(TelEndToEnd, ReplayExportsByteIdenticalPipelineSeries) {
  const std::string trace = tmp_path("e2e.pbt");

  // Live run: record the pipeline and sample telemetry simultaneously.
  tel::Sampler live;
  std::uint64_t live_digest = 0;
  {
    cap::TraceWriter writer(trace);
    sim::CaptureOptions capture;
    capture.writer = &writer;
    capture.telemetry = &live;
    sim::run_location(sim::location(2), "pbe", 3 * util::kSecond, nullptr, 1,
                      capture);
    ASSERT_TRUE(writer.close()) << writer.error();
    live_digest = pipeline_series_digest(live.recorder());
    // The live run sampled more than just pipeline series.
    EXPECT_NE(live.recorder().find("truth.cell1.fair_bits_sf"), nullptr);
    EXPECT_NE(live.recorder().find("flow.pacing_bps"), nullptr);
    EXPECT_NE(live.recorder().find("check.violations"), nullptr);
  }

  // Replay the trace; the pipeline half must reproduce the series exactly.
  tel::Sampler replayed;
  {
    cap::TraceReader reader(trace);
    ASSERT_TRUE(reader.ok()) << reader.error();
    cap::ReplayDriver driver(reader.header());
    replayed.pipeline().attach(&driver.monitor(), &driver.estimator());
    driver.set_batch_end_hook([&](std::int64_t sf) {
      replayed.pipeline().on_batch_end(sf);
    });
    driver.run(reader);
    ASSERT_TRUE(reader.ok()) << reader.error();
  }
  EXPECT_EQ(pipeline_series_digest(replayed.recorder()), live_digest);
  EXPECT_NE(live_digest, 0u);
  std::remove(trace.c_str());
}

// `run_experiment --replay F --telemetry T`: one replay carries the
// pipeline digest and the telemetry batch-end hook at once, and neither
// instrument may displace the other.
TEST(TelEndToEnd, ReplayWithDigestAndTelemetryKeepsBoth) {
  const std::string trace = tmp_path("e2e_both.pbt");

  tel::Sampler live;
  cap::PipelineDigest live_digest;
  {
    cap::TraceWriter writer(trace);
    const sim::CaptureOptions capture{&writer, &live_digest, &live};
    sim::run_location(sim::location(2), "pbe", 3 * util::kSecond, nullptr, 1,
                      capture);
    ASSERT_TRUE(writer.close()) << writer.error();
  }
  ASSERT_GT(live_digest.observations(), 0u);
  ASSERT_GT(live_digest.probes(), 0u);

  tel::Sampler replayed;
  cap::PipelineDigest replayed_digest;
  {
    cap::TraceReader reader(trace);
    ASSERT_TRUE(reader.ok()) << reader.error();
    cap::ReplayDriver driver(reader.header(), &replayed_digest);
    replayed.pipeline().attach(&driver.monitor(), &driver.estimator());
    driver.set_batch_end_hook([&](std::int64_t sf) {
      replayed.pipeline().on_batch_end(sf);
    });
    driver.run(reader);
    ASSERT_TRUE(reader.ok()) << reader.error();
  }
  EXPECT_EQ(replayed_digest.observation_digest(),
            live_digest.observation_digest());
  EXPECT_EQ(replayed_digest.probe_digest(), live_digest.probe_digest());
  EXPECT_TRUE(replayed_digest == live_digest);
  EXPECT_EQ(pipeline_series_digest(replayed.recorder()),
            pipeline_series_digest(live.recorder()));
  EXPECT_NE(replayed.recorder().find("est.cf_bits_sf"), nullptr);
  std::remove(trace.c_str());
}

}  // namespace
}  // namespace pbecc
