// Scaled-down runs of the soak drivers (src/sim/soak.h): the full
// city-scale lengths live in bench_soak; here we verify the harness itself
// — zero invariant violations, bounded state maps, sub-1e-9 WindowedMean
// drift, and that the scenarios actually exercise churn/storms/reconfig.
#include <gtest/gtest.h>

#include "check/check.h"
#include "sim/soak.h"

namespace pbecc::sim {
namespace {

TEST(PipelineSoak, CleanAtSmallScale) {
  PipelineSoakConfig cfg;
  cfg.subframes = 30'000;
  cfg.reconfig_period_sf = 10'000;   // scaled so reconfigs still happen
  cfg.rotate_period_sf = 2'000;
  cfg.storm_period_sf = 8'000;
  cfg.storm_len_sf = 500;
  cfg.window_jitter_period_sf = 1'000;
  const SoakReport r = run_pipeline_soak(cfg);

  EXPECT_EQ(r.invariant_violations, 0u) << r.violation_digest;
  for (const auto& f : r.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(r.ok());
  EXPECT_LT(r.max_mean_drift, 1e-9);

  // The run must be non-trivial: churn, storms and reconfigs all occurred.
  EXPECT_GT(r.churn_events, 100u);
  EXPECT_GT(r.handovers, 5u);
  EXPECT_EQ(r.reconfigs, 3u);  // sf 10k, 20k, 30k
  EXPECT_GT(r.decode_attempts, 0u);

  // Bounded state: never more cells than configured, tracker maps capped.
  EXPECT_LE(r.max_estimator_cells, 3u);
  EXPECT_GT(r.max_estimator_cells, 0u);
  // Pool + own RNTI + the window-scaled alias allowance (see soak.cpp).
  EXPECT_LE(r.max_tracker_users,
            static_cast<std::size_t>(kPipelineSoakRntiPool) + 1 + 200);
}

TEST(MacSoak, CleanAtSmallScale) {
  MacSoakConfig cfg;
  cfg.subframes = 12'000;
  cfg.storm_period_sf = 4'000;
  cfg.storm_len_sf = 400;
  cfg.churn_per_sf = 0.01;  // scaled up so short runs still churn
  const SoakReport r = run_mac_soak(cfg);

  EXPECT_EQ(r.invariant_violations, 0u) << r.violation_digest;
  for (const auto& f : r.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(r.ok());

  EXPECT_GT(r.delivered_packets, 1000u);
  EXPECT_GT(r.churn_events, 10u);
  EXPECT_GT(r.handovers, 10u);
  EXPECT_LE(r.max_ues, static_cast<std::size_t>(kMacSoakFgUes + kMacSoakBgUePool));
  EXPECT_LE(r.max_ue_cells, 2u);
  EXPECT_GT(r.max_ue_cells, 0u);
}

TEST(SoakReport, JsonCarriesVerdict) {
  SoakReport r;
  r.subframes = 5;
  r.max_mean_drift = 2.5e-12;
  EXPECT_NE(r.to_json().find("\"ok\": true"), std::string::npos);
  r.failures.push_back("boom");
  EXPECT_NE(r.to_json().find("\"ok\": false"), std::string::npos);
  r.failures.clear();
  r.invariant_violations = 1;
  EXPECT_NE(r.to_json().find("\"ok\": false"), std::string::npos);
}

TEST(SoakDrivers, DeterministicPerSeed) {
  PipelineSoakConfig cfg;
  cfg.subframes = 5'000;
  const SoakReport a = run_pipeline_soak(cfg);
  const SoakReport b = run_pipeline_soak(cfg);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.decode_attempts, b.decode_attempts);
  EXPECT_EQ(a.churn_events, b.churn_events);
}

}  // namespace
}  // namespace pbecc::sim
