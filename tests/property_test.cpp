// Property-based tests: parameterized sweeps asserting invariants across
// large input grids and randomized traces.
#include <gtest/gtest.h>

#include <tuple>

#include "mac/reordering_buffer.h"
#include "mac/scheduler.h"
#include "phy/dci.h"
#include "phy/error_model.h"
#include "phy/pdcch.h"
#include "pbe/rate_translator.h"
#include "decoder/blind_decoder.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/windowed_filter.h"

namespace pbecc {
namespace {

// -------------------------------------------- DCI roundtrip over a grid

using DciParam = std::tuple<int /*format*/, int /*n_prbs*/, int /*cqi*/>;

class DciRoundtrip : public ::testing::TestWithParam<DciParam> {};

TEST_P(DciRoundtrip, EncodeDecodeIdentity) {
  const auto [f, n_prbs, cqi] = GetParam();
  const auto format = static_cast<phy::DciFormat>(f);
  phy::Dci d;
  d.rnti = static_cast<phy::Rnti>(0x100 + f * 31 + n_prbs);
  d.format = format;
  d.prb_start = static_cast<std::uint16_t>(100 - n_prbs);
  d.n_prbs = static_cast<std::uint16_t>(n_prbs);
  const bool mimo = format == phy::DciFormat::kFormat2 ||
                    format == phy::DciFormat::kFormat2A;
  d.mcs = {cqi, mimo ? 2 : 1};
  d.harq_id = static_cast<std::uint8_t>((f + n_prbs) % 8);
  d.new_data = (n_prbs % 2) == 0;

  const auto back = phy::decode_dci(phy::encode_dci(d), format, 100);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DciRoundtrip,
    ::testing::Combine(::testing::Range(0, phy::kNumDciFormats),
                       ::testing::Values(1, 4, 25, 50, 100),
                       ::testing::Values(1, 7, 11, 15)));

// --------------------------------------- TB error model monotonicity

class TbErrorPropTest
    : public ::testing::TestWithParam<std::tuple<double /*p*/, double /*L*/>> {};

TEST_P(TbErrorPropTest, BoundsAndMonotonicity) {
  const auto [p, len] = GetParam();
  const double e = phy::tb_error_rate(p, len);
  EXPECT_GE(e, 0.0);
  EXPECT_LE(e, 1.0);
  // Monotone in both arguments.
  EXPECT_LE(e, phy::tb_error_rate(p * 2, len) + 1e-12);
  EXPECT_LE(e, phy::tb_error_rate(p, len * 2) + 1e-12);
  // Union bound: TBER <= p * L.
  EXPECT_LE(e, p * len + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TbErrorPropTest,
    ::testing::Combine(::testing::Values(1e-7, 5e-7, 1e-6, 3e-6, 5e-6, 1e-5),
                       ::testing::Values(1e3, 1e4, 5e4, 1e5, 2e5)));

// ------------------------------------------ Eqn 5 translation roundtrip

class TranslatorProp
    : public ::testing::TestWithParam<std::tuple<double /*cp*/, double /*p*/>> {};

TEST_P(TranslatorProp, InverseConsistency) {
  const auto [cp, p] = GetParam();
  pbe::RateTranslator tr;
  const double ct = tr.to_transport(cp, p);
  EXPECT_GT(ct, 0.0);
  EXPECT_LT(ct, cp);
  EXPECT_NEAR(tr.to_physical(ct, p), cp, cp * 0.02);
  // Overhead never exceeds ~60% nor dips below gamma.
  EXPECT_GT(ct, cp * 0.4);
  EXPECT_LT(ct, cp * (1.0 - pbe::kProtocolOverhead) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TranslatorProp,
    ::testing::Combine(::testing::Values(2e3, 1e4, 4e4, 8e4, 1.5e5, 2e5),
                       ::testing::Values(2e-7, 1e-6, 2e-6, 5e-6)));

// ------------------------------------------- scheduler never over-allocates

class SchedulerProp : public ::testing::TestWithParam<
                          std::tuple<std::string, int /*prbs*/, int /*users*/>> {};

TEST_P(SchedulerProp, ConservationAndDemandLimits) {
  const auto& [name, prbs, users] = GetParam();
  auto sched = mac::make_scheduler(name);
  util::Rng rng{static_cast<std::uint64_t>(prbs * 100 + users)};
  for (int round = 0; round < 50; ++round) {
    std::vector<mac::SchedRequest> reqs;
    for (int u = 0; u < users; ++u) {
      reqs.push_back(mac::SchedRequest{
          static_cast<mac::UeId>(u + 1),
          rng.uniform_int(0, 200000),
          rng.uniform(100.0, 1800.0)});
    }
    const auto allocs = sched->allocate(prbs, reqs);
    int total = 0;
    for (const auto& a : allocs) {
      EXPECT_GT(a.n_prbs, 0);
      total += a.n_prbs;
      // No allocation beyond demand.
      for (const auto& r : reqs) {
        if (r.ue == a.ue) {
          EXPECT_LE(a.n_prbs, mac::demand_prbs(r));
        }
      }
    }
    EXPECT_LE(total, prbs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchedulerProp,
    ::testing::Combine(::testing::Values("fair-share", "proportional-fair",
                                         "round-robin"),
                       ::testing::Values(6, 25, 50, 100),
                       ::testing::Values(1, 3, 8, 20)));

TEST(FairShareProp, MaxMinInvariant) {
  // In every fair-share allocation, a user below its demand is never
  // granted fewer PRBs than any other user (max-min fairness).
  mac::FairShareScheduler s;
  util::Rng rng{99};
  for (int round = 0; round < 200; ++round) {
    const int prbs = static_cast<int>(rng.uniform_int(4, 100));
    const int users = static_cast<int>(rng.uniform_int(1, 10));
    std::vector<mac::SchedRequest> reqs;
    for (int u = 0; u < users; ++u) {
      reqs.push_back(mac::SchedRequest{static_cast<mac::UeId>(u + 1),
                                       rng.uniform_int(0, 100000), 1000.0});
    }
    const auto allocs = s.allocate(prbs, reqs);
    std::map<mac::UeId, int> granted;
    for (const auto& a : allocs) granted[a.ue] = a.n_prbs;
    for (const auto& r : reqs) {
      const int mine = granted[r.ue];
      if (mine >= mac::demand_prbs(r)) continue;  // satisfied: exempt
      for (const auto& other : allocs) {
        EXPECT_GE(mine + 1, other.n_prbs)
            << "unsatisfied user " << r.ue << " got " << mine
            << " while user " << other.ue << " got " << other.n_prbs;
      }
    }
  }
}

// --------------------------------- reordering: in-order delivery invariant

TEST(ReorderProp, AlwaysInOrderUnderRandomCompletion) {
  util::Rng rng{123};
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::uint64_t> delivered;
    mac::ReorderingBuffer rb(
        [&](net::Packet p) { delivered.push_back(p.seq); });

    const int n_tbs = 60;
    // Random permutation-ish arrival: each TB arrives after a random
    // number of HARQ retransmissions; ~5% are abandoned.
    struct Ev {
      std::int64_t when;
      std::uint64_t tb;
      bool abandoned;
    };
    std::vector<Ev> events;
    for (std::uint64_t i = 0; i < n_tbs; ++i) {
      const auto retx = rng.uniform_int(0, 3);
      events.push_back(Ev{static_cast<std::int64_t>(i) + retx * 8,
                          i, rng.bernoulli(0.05)});
    }
    std::sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
      if (a.when != b.when) return a.when < b.when;
      return a.tb < b.tb;
    });
    std::vector<std::uint64_t> expected;
    for (const auto& e : events) {
      const util::Time now = e.when * util::kMillisecond;
      if (e.abandoned) {
        rb.on_tb_abandoned(now, e.tb);
      } else {
        mac::TransportBlock tb;
        tb.tb_seq = e.tb;
        net::Packet p;
        p.seq = e.tb;
        tb.completed_packets.push_back(p);
        rb.on_tb_decoded(now, std::move(tb));
      }
    }
    // Invariant: strictly increasing packet sequence at delivery.
    for (std::size_t i = 1; i < delivered.size(); ++i) {
      ASSERT_LT(delivered[i - 1], delivered[i]) << "trial " << trial;
    }
    // Everything not abandoned is eventually delivered.
    std::size_t abandoned = 0;
    for (const auto& e : events) abandoned += e.abandoned;
    EXPECT_EQ(delivered.size(), n_tbs - abandoned);
  }
}

// --------------------------------- windowed filter vs brute force (min)

TEST(WindowedFilterProp, MinMatchesBruteForce) {
  util::Rng rng{77};
  util::WindowedMin<double> f{150};
  std::vector<std::pair<util::Time, double>> hist;
  util::Time t = 0;
  for (int i = 0; i < 400; ++i) {
    t += rng.uniform_int(1, 40);
    const double v = rng.uniform(0, 1000);
    hist.emplace_back(t, v);
    f.update(t, v);
    double expect = 1e18;
    for (const auto& [ht, hv] : hist) {
      if (ht >= t - 150) expect = std::min(expect, hv);
    }
    ASSERT_DOUBLE_EQ(f.get(t, 1e18), expect);
  }
}

// --------------------------------------------- Jain index bounds property

TEST(JainProp, AlwaysWithinBounds) {
  util::Rng rng{55};
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) xs.push_back(rng.uniform(0, 100));
    const double j = util::jain_index(xs);
    EXPECT_GE(j, 1.0 / static_cast<double>(n) - 1e-12);
    EXPECT_LE(j, 1.0 + 1e-12);
  }
}

// ----------------------------- PDCCH: whatever fits, decodes (clean air)

class PdcchLoadProp : public ::testing::TestWithParam<int /*messages*/> {};

TEST_P(PdcchLoadProp, EverythingPlacedIsDecodable) {
  const int target = GetParam();
  phy::CellConfig cell{1, 20.0};
  phy::PdcchBuilder b(cell, 9);
  util::Rng rng{static_cast<std::uint64_t>(target)};
  int placed = 0;
  for (int i = 0; i < target; ++i) {
    phy::Dci d;
    d.rnti = static_cast<phy::Rnti>(0x100 + i);
    d.format = static_cast<phy::DciFormat>(rng.uniform_int(0, 4));
    d.n_prbs = static_cast<std::uint16_t>(rng.uniform_int(1, 20));
    d.prb_start = 0;
    const bool mimo = d.format == phy::DciFormat::kFormat2 ||
                      d.format == phy::DciFormat::kFormat2A;
    d.mcs = {static_cast<int>(rng.uniform_int(1, 15)), mimo ? 2 : 1};
    const int al = 1 << rng.uniform_int(0, 3);
    placed += b.add(d, al) ? 1 : 0;
  }
  const auto sf = std::move(b).build();
  decoder::BlindDecoder dec{cell};
  EXPECT_EQ(dec.decode(sf).size(), static_cast<std::size_t>(placed));
}

INSTANTIATE_TEST_SUITE_P(Load, PdcchLoadProp,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

}  // namespace
}  // namespace pbecc
