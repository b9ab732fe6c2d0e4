// Unit + integration tests for pbecc::obs — the metrics registry, the
// event trace (ring semantics, sampling, exporters) and the profiler,
// plus an end-to-end check that a traced scenario run populates events
// and counters from every pipeline stage.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "sim/scenario.h"

namespace pbecc::obs {
namespace {

// Every test starts from a clean slate; the registry and trace are
// process-global and other tests in this binary mutate them.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_all(); }
  void TearDown() override { reset_all(); }
};

// ------------------------------------------------------------- registry

TEST_F(ObsTest, CounterGaugeBasics) {
  Counter& c = counter("test.counter");
  Gauge& g = gauge("test.gauge");
  c.inc();
  c.inc(4);
  g.set(2.5);
  g.set(7.25);  // last write wins
  EXPECT_EQ(c.value(), 5u);
  EXPECT_DOUBLE_EQ(g.value(), 7.25);
}

TEST_F(ObsTest, FindOrCreateReturnsSameObject) {
  Counter& a = counter("test.same");
  Counter& b = counter("test.same");
  EXPECT_EQ(&a, &b);
  // Same name in different metric families are distinct objects.
  gauge("test.same");
  histogram("test.same");
  EXPECT_EQ(Registry::instance().counters().size(), 1u);
  EXPECT_EQ(Registry::instance().gauges().size(), 1u);
  EXPECT_EQ(Registry::instance().histograms().size(), 1u);
}

TEST_F(ObsTest, ResetZeroesButKeepsRegistrations) {
  Counter& c = counter("test.reset");
  c.inc(10);
  Registry::instance().reset();
  EXPECT_EQ(c.value(), 0u);  // cached reference still valid and zeroed
  ASSERT_EQ(Registry::instance().counters().size(), 1u);
  EXPECT_EQ(Registry::instance().counters()[0].first, "test.reset");
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(ObsTest, ExpHistogramBucketsAndStats) {
  ExpHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);

  h.record(0);  // bucket 0
  h.record(1);  // bucket 0
  h.record(2);  // [2,4) -> bucket 1
  h.record(3);
  h.record(1000);  // [2^9, 2^10) -> bucket 9
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 1000);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1006.0 / 5.0);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[9], 1u);

  // Percentiles are bucket-midpoint approximations, clamped to [min,max]:
  // p100 must not exceed the true max, p0 not undershoot the true min.
  EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
  const double p50 = h.percentile(50);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 4.0);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.buckets()[1], 0u);
}

TEST_F(ObsTest, PercentileMonotoneOnWideRange) {
  ExpHistogram h;
  for (std::uint64_t v = 1; v < (1ull << 20); v *= 3) h.record(v);
  double prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const double q = h.percentile(p);
    EXPECT_GE(q, prev) << "p" << p;
    prev = q;
  }
}

TEST_F(ObsTest, PercentileOnEmptyHistogramIsZero) {
  ExpHistogram h;
  for (double p : {0.0, 50.0, 95.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 0.0) << "p" << p;
  }
}

TEST_F(ObsTest, PercentileWithSingleSampleIsThatSample) {
  ExpHistogram h;
  h.record(37);
  // Every quantile of a one-sample distribution is the sample; the [min,max]
  // clamp must collapse the bucket-midpoint estimate to it exactly.
  for (double p : {0.0, 1.0, 50.0, 95.0, 100.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(p), 37.0) << "p" << p;
  }
}

TEST_F(ObsTest, PercentileWithAllSamplesInOneBucket) {
  ExpHistogram h;
  // 100 samples, all in bucket [64, 128).
  for (int i = 0; i < 100; ++i) h.record(64 + (i % 64));
  EXPECT_DOUBLE_EQ(h.percentile(0), 64.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 127.0);
  // Interior quantiles all resolve to the same bucket estimate, clamped
  // within the exact extremes — monotone and in-range by construction.
  double prev = 64.0;
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    const double q = h.percentile(p);
    EXPECT_GE(q, prev) << "p" << p;
    EXPECT_GE(q, 64.0) << "p" << p;
    EXPECT_LE(q, 127.0) << "p" << p;
    prev = q;
  }
}

TEST_F(ObsTest, RegistryJsonContainsEverything) {
  counter("decoder.test_counter").inc(3);
  gauge("pbe.test_gauge").set(1.5);
  histogram("prof.test_hist").record(100);
  const std::string json = Registry::instance().to_json();
  // Versioned schema, and the version leads the object so consumers can
  // dispatch before parsing the sections.
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_LT(json.find("\"schema_version\""), json.find("\"counters\""));
  EXPECT_NE(json.find("\"decoder.test_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"pbe.test_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"prof.test_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"decoder.test_counter\": 3"), std::string::npos);
}

// ---------------------------------------------------------------- trace

TEST_F(ObsTest, EmitWithoutActiveTraceIsSafe) {
  EXPECT_FALSE(Trace::instance().active());
  emit(EventKind::kHandover, 1000, 1, 2, 3);  // must not crash or record
  EXPECT_EQ(Trace::instance().size(), 0u);
}

TEST_F(ObsTest, RecordsInOrderAndStops) {
  Trace::instance().start();
  emit(EventKind::kHandover, 10, 1, 7, 2);
  emit(EventKind::kQueueDrop, 20, 0, 7, 1500);
  Trace::instance().stop();
  emit(EventKind::kHandover, 30, 1, 7, 2);  // after stop: ignored

  const auto events = Trace::instance().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].t, 10);
  EXPECT_EQ(events[0].kind, EventKind::kHandover);
  EXPECT_EQ(events[0].id2, 7u);
  EXPECT_EQ(events[1].t, 20);
  EXPECT_EQ(events[1].a, 1500);
}

TEST_F(ObsTest, RingWrapKeepsNewestOldestFirst) {
  TraceConfig cfg;
  cfg.capacity = 4;
  Trace::instance().start(cfg);
  for (int i = 0; i < 10; ++i) {
    emit(EventKind::kHandover, i, 1, 1, i);
  }
  Trace& tr = Trace::instance();
  EXPECT_EQ(tr.size(), 4u);
  EXPECT_EQ(tr.recorded(), 10u);
  EXPECT_EQ(tr.dropped(), 6u);
  const auto events = tr.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The four newest survive, oldest first.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(events[static_cast<std::size_t>(i)].t, 6 + i);
}

TEST_F(ObsTest, HighFrequencySampling) {
  TraceConfig cfg;
  cfg.sample_every = 4;
  Trace::instance().start(cfg);
  // kDciDecoded is high-frequency: 1 in 4 kept. kHandover is not: all kept.
  for (int i = 0; i < 16; ++i) emit(EventKind::kDciDecoded, i, 1, 2, 3);
  for (int i = 0; i < 3; ++i) emit(EventKind::kHandover, 100 + i, 1, 1, 1);
  Trace& tr = Trace::instance();
  EXPECT_EQ(tr.size(), 4u + 3u);
  EXPECT_EQ(tr.sampled_out(), 12u);
}

TEST_F(ObsTest, SchemaTableIsComplete) {
  for (int k = 0; k < kNumEventKinds; ++k) {
    const EventSchema& s = schema(static_cast<EventKind>(k));
    EXPECT_NE(s.name, nullptr) << "kind " << k;
    EXPECT_NE(s.category, nullptr) << "kind " << k;
    const std::string cat = s.category;
    EXPECT_TRUE(cat == "decoder" || cat == "pbe" || cat == "mac" ||
                cat == "net" || cat == "fault")
        << "kind " << k << " category " << cat;
  }
}

TEST_F(ObsTest, JsonlExportRoundTrips) {
  Trace::instance().start();
  emit(EventKind::kDciDecoded, 5000, 1, 61453, 25, 374.0, 8);
  emit(EventKind::kRtoFired, 6000, 0, 3, 0, 12000.0);
  const std::string path = ::testing::TempDir() + "/obs_test_trace.jsonl";
  ASSERT_TRUE(Trace::instance().write_jsonl(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"t_us\": 5000"), std::string::npos);
  EXPECT_NE(lines[0].find("\"name\": \"dci_decoded\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"rnti\": 61453"), std::string::npos);
  EXPECT_NE(lines[0].find("\"al\": 8"), std::string::npos);
  EXPECT_NE(lines[1].find("\"name\": \"rto_fired\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"bytes_lost\": 12000"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ObsTest, ChromeExportIsWellFormed) {
  Trace::instance().start();
  emit(EventKind::kCapacityUpdate, 1000, 0, 0, 2, 5000.0, 4000.0);
  emit(EventKind::kHarqRetx, 2000, 1, 9, 3, 12.0);
  const std::string path = ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(Trace::instance().write_chrome(path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(doc.find("\"capacity_update\""), std::string::npos);
  EXPECT_NE(doc.find("\"harq_retx\""), std::string::npos);
  EXPECT_NE(doc.find("\"ts\": 1000"), std::string::npos);
  // Braces and brackets balance (cheap well-formedness check).
  std::int64_t braces = 0, brackets = 0;
  for (char ch : doc) {
    braces += ch == '{';
    braces -= ch == '}';
    brackets += ch == '[';
    brackets -= ch == ']';
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- profiler

TEST_F(ObsTest, ProfilerRecordsOnlyWhenEnabled) {
  const auto burn = [] {
    PBECC_PROF_SCOPE("obs_test_site");
    volatile int sink = 0;
    for (int i = 0; i < 100; ++i) sink = sink + i;
  };
  set_profiling(false);
  burn();
  EXPECT_EQ(histogram("prof.obs_test_site").count(), 0u);

  set_profiling(true);
  burn();
  burn();
  set_profiling(false);
  EXPECT_EQ(histogram("prof.obs_test_site").count(), 2u);
}

// ------------------------------------------------- end-to-end (scenario)

TEST_F(ObsTest, TracedScenarioRunCoversPipeline) {
  using util::kMillisecond;
  using util::kSecond;

  Trace::instance().start();
  set_profiling(true);

  sim::ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.cells = {{10.0, 0.05}};
  sim::Scenario s{cfg};
  sim::UeSpec ue;
  ue.cell_indices = {0};
  s.add_ue(ue);
  sim::FlowSpec fs;
  fs.algo = "pbe";
  fs.stop = fs.start + 2 * kSecond;
  const int f = s.add_flow(fs);
  s.run_until(fs.stop + 100 * kMillisecond);
  s.stats(f).finish(fs.stop);

  set_profiling(false);
  Trace::instance().stop();

  // Events from decoder and PBE stages are on the timeline...
  bool saw_dci = false, saw_subframe = false, saw_capacity = false,
       saw_feedback = false;
  util::Time prev_t = 0;
  for (const Event& e : Trace::instance().snapshot()) {
    saw_dci |= e.kind == EventKind::kDciDecoded;
    saw_subframe |= e.kind == EventKind::kSubframeObserved;
    saw_capacity |= e.kind == EventKind::kCapacityUpdate;
    saw_feedback |= e.kind == EventKind::kFeedbackSent;
    // Emission order tracks sim time to within one subframe (the capacity
    // estimator stamps its update at the *next* subframe boundary, so it
    // can precede packet-clocked events inside that subframe).
    EXPECT_GE(e.t, prev_t - util::kMillisecond)
        << "event timestamps drifted more than one subframe out of order";
    prev_t = std::max(prev_t, e.t);
  }
  EXPECT_TRUE(saw_dci);
  EXPECT_TRUE(saw_subframe);
  EXPECT_TRUE(saw_capacity);
  EXPECT_TRUE(saw_feedback);

  // ...and the registry saw every stage: decoder, estimator, MAC, net.
  EXPECT_GT(counter("decoder.messages_decoded").value(), 0u);
  EXPECT_GT(counter("decoder.subframes_decoded").value(), 0u);
  EXPECT_GT(counter("decoder.fused_subframes").value(), 0u);
  EXPECT_GT(counter("pbe.estimator.updates").value(), 0u);
  EXPECT_GT(counter("mac.tbs_sent").value(), 0u);
  EXPECT_GT(counter("mac.prbs_total").value(), 0u);
  EXPECT_GT(counter("net.packets_sent").value(), 0u);
  EXPECT_GT(counter("net.acks_received").value(), 0u);
  EXPECT_GT(counter("net.events_dispatched").value(), 0u);
  EXPECT_GT(gauge("pbe.sender.pacing_bps").value(), 0.0);

  // PRB ledger adds up: total = data + control + retx + idle.
  EXPECT_EQ(counter("mac.prbs_total").value(),
            counter("mac.prbs_data").value() +
                counter("mac.prbs_control").value() +
                counter("mac.prbs_retx").value() +
                counter("mac.prbs_idle").value());

  // The profiler measured real blind-decode work.
  EXPECT_GT(histogram("prof.blind_decode").count(), 0u);
  EXPECT_GT(histogram("prof.blind_decode").sum(), 0u);
  EXPECT_GT(histogram("prof.event_dispatch").count(), 0u);
}

}  // namespace
}  // namespace pbecc::obs
