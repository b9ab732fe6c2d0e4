// Unit tests for src/util: time, RNG, statistics, windowed filters,
// bit vectors and CRC.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "util/bitvec.h"
#include "util/crc.h"
#include "util/rate.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"
#include "util/windowed_filter.h"

namespace pbecc::util {
namespace {

// ---------------------------------------------------------------- time

TEST(Time, SubframeIndexing) {
  EXPECT_EQ(subframe_index(0), 0);
  EXPECT_EQ(subframe_index(999), 0);
  EXPECT_EQ(subframe_index(1000), 1);
  EXPECT_EQ(subframe_index(123456), 123);
  EXPECT_EQ(subframe_start(5), 5000);
}

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_millis(kMillisecond), 1.0);
  EXPECT_EQ(from_seconds(0.5), 500 * kMillisecond);
  EXPECT_EQ(from_millis(2.5), 2500);
  EXPECT_EQ(kSlot * 2, kSubframe);
}

// ---------------------------------------------------------------- rate

TEST(Rate, Conversions) {
  EXPECT_DOUBLE_EQ(bits_per_subframe_to_bps(1000.0), 1e6);
  EXPECT_DOUBLE_EQ(bps_to_bits_per_subframe(1e6), 1000.0);
  EXPECT_DOUBLE_EQ(mbps(3.5), 3.5e6);
  EXPECT_DOUBLE_EQ(to_mbps(3.5e6), 3.5);
}

TEST(Rate, TransmissionDelay) {
  // 1500 bytes at 12 Mbit/s = 1 ms.
  EXPECT_EQ(transmission_delay(1500, 12e6), kMillisecond);
  EXPECT_EQ(transmission_delay(1500, 0), 0);
  EXPECT_EQ(transmission_delay(0, 1e6), 0);
}

// ---------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng r{7};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng r{11};
  OnlineStats s;
  double sq = 0;  // squared deviations from the true mean
  for (int i = 0; i < 20000; ++i) {
    const double x = r.normal(5.0, 2.0);
    s.add(x);
    sq += (x - 5.0) * (x - 5.0);
  }
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / static_cast<double>(s.count())), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng r{13};
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.15);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng r{17};
  OnlineStats small, large;
  for (int i = 0; i < 20000; ++i) small.add(static_cast<double>(r.poisson(0.4)));
  for (int i = 0; i < 5000; ++i) large.add(static_cast<double>(r.poisson(100.0)));
  EXPECT_NEAR(small.mean(), 0.4, 0.03);
  EXPECT_NEAR(large.mean(), 100.0, 1.5);
}

TEST(Rng, PoissonZeroMean) {
  Rng r{19};
  EXPECT_EQ(r.poisson(0.0), 0);
  EXPECT_EQ(r.poisson(-1.0), 0);
}

TEST(Rng, BernoulliProbability) {
  Rng r{23};
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, BernoulliCutoffMatchesUniformCompare) {
  Rng src{99};
  std::vector<double> ps = {0.0,  -0.5,       1.0,        1.5,  1e-300,
                            1e-3, 0x1.0p-53,  0x1.0p-54,  0.01, 0.04,
                            0.5,  0.99999999, std::nan("")};
  // Probabilities on, just below and just above a draw's exact value.
  for (int i = 0; i < 200; ++i) {
    const double u = static_cast<double>(src.next_u64() >> 11) * 0x1.0p-53;
    ps.push_back(u);
    ps.push_back(std::nextafter(u, 0.0));
    ps.push_back(std::nextafter(u, 1.0));
  }
  const auto uniform_of = [](std::uint64_t k) {
    return static_cast<double>(k) * 0x1.0p-53;
  };
  for (const double p : ps) {
    const std::uint64_t cut = Rng::bernoulli_cutoff(p);
    // Every draw value k = next_u64() >> 11 next to the cutoff, and the ends.
    for (std::uint64_t k : {std::uint64_t{0}, std::uint64_t{1}, cut - 1, cut,
                            cut + 1, (std::uint64_t{1} << 53) - 1}) {
      if (k >= (std::uint64_t{1} << 53)) continue;
      ASSERT_EQ(k < cut, uniform_of(k) < p) << "p " << p << " k " << k;
    }
    Rng a{7}, b{7};
    for (int i = 0; i < 500; ++i) {
      ASSERT_EQ(a.bernoulli(p), (b.next_u64() >> 11) < cut) << "p " << p;
    }
  }
}

TEST(Rng, ForkIndependent) {
  Rng a{42};
  Rng b = a.fork();
  // Forked stream should not replay the parent.
  int same = 0;
  Rng a2{42};
  a2.next_u64();  // align with post-fork parent state
  for (int i = 0; i < 32; ++i) same += b.next_u64() == a2.next_u64();
  EXPECT_LT(same, 2);
}

// discard(n) is n next_u64() calls: every n through the step/jump
// break-even and past it, n around and several times past one jump's span
// (so one discard makes several jumps), and random large n. Each check
// reads the stream a different way: a draw, a normal, a fork.
TEST(Rng, DiscardMatchesStepping) {
  std::vector<std::uint64_t> ns;
  for (std::uint64_t n = 0; n <= 2 * Rng::kJumpBreakEven; ++n) ns.push_back(n);
  for (std::uint64_t n = 2 * Rng::kJumpBreakEven; n < 4 * Rng::kJumpSpan;
       n += 997) {
    ns.push_back(n);
  }
  for (const std::uint64_t n :
       {Rng::kJumpSpan - 1, Rng::kJumpSpan, Rng::kJumpSpan + 1,
        Rng::kJumpSpan + 64, 2 * Rng::kJumpSpan, 3 * Rng::kJumpSpan + 63}) {
    ns.push_back(n);
  }
  Rng pick{2024};
  for (int i = 0; i < 20; ++i) {
    ns.push_back(static_cast<std::uint64_t>(pick.uniform_int(1, 1000000)));
  }
  Rng stepped{77}, skipped{77};
  for (std::size_t i = 0; i < ns.size(); ++i) {
    const std::uint64_t n = ns[i];
    for (std::uint64_t k = 0; k < n; ++k) stepped.next_u64();
    skipped.discard(n);
    switch (i % 3) {
      case 0:
        ASSERT_EQ(skipped.next_u64(), stepped.next_u64()) << "n " << n;
        break;
      case 1:
        ASSERT_EQ(skipped.normal(), stepped.normal()) << "n " << n;
        break;
      default:
        ASSERT_EQ(skipped.fork().next_u64(), stepped.fork().next_u64())
            << "n " << n;
    }
  }
}

// discard() only adds to the draws the Rng owes; the next output pays
// them all. Runs of discards with no draw between them (zero-length ones,
// sums just below and at the step/jump break-even, past one jump span and
// past several) must leave every output where plain stepping leaves it:
// each run is read back through every output, through a copy taken while
// the debt is pending, and through a reseed, which must drop the debt.
TEST(Rng, DeferredDiscardsMatchStepping) {
  constexpr std::uint64_t kEven = Rng::kJumpBreakEven;
  constexpr std::uint64_t kSpan = Rng::kJumpSpan;
  const std::vector<std::vector<std::uint64_t>> runs = {
      {0},
      {0, 0, 0},
      {1, 0, 2, 0},
      {100, 0, 200, kEven - 301},  // one short of the break-even
      {100, 200, kEven - 300},     // exactly at it
      {kEven - 1, 1, 0, 1},
      {64, kSpan - 64, 0},         // one whole span
      {kSpan - 63, 62, 2},         // one draw past it
      {kSpan, 0, kSpan, 5},        // two spans and change
      {3 * kSpan + 63, 1000, 0, 7, kEven},
  };
  const std::uint64_t half = Rng::bernoulli_cutoff(0.5);
  // Each read draws from the deferred Rng `a` and its stepped twin `b`
  // alike and compares what they return.
  struct Read {
    const char* name;
    bool cache_spare;  // draw one normal() before the discards
    std::function<void(Rng&, Rng&)> check;
  };
  const std::vector<Read> reads = {
      {"next_u64", false,
       [](Rng& a, Rng& b) { EXPECT_EQ(a.next_u64(), b.next_u64()); }},
      {"uniform", false,
       [](Rng& a, Rng& b) { EXPECT_EQ(a.uniform(), b.uniform()); }},
      {"uniform_int", false,
       [](Rng& a, Rng& b) {
         EXPECT_EQ(a.uniform_int(-7, 1000000), b.uniform_int(-7, 1000000));
       }},
      {"bernoulli", false,
       [](Rng& a, Rng& b) {
         for (int i = 0; i < 64; ++i) EXPECT_EQ(a.bernoulli(0.5), b.bernoulli(0.5));
       }},
      {"exponential", false,
       [](Rng& a, Rng& b) { EXPECT_EQ(a.exponential(3.0), b.exponential(3.0)); }},
      {"normal", false,
       [](Rng& a, Rng& b) { EXPECT_EQ(a.normal(), b.normal()); }},
      {"normal with a cached spare", true,
       [](Rng& a, Rng& b) {
         EXPECT_EQ(a.normal(), b.normal());  // the spare: no draw, no payment
         EXPECT_EQ(a.normal(), b.normal());
       }},
      {"poisson", false,
       [](Rng& a, Rng& b) {
         EXPECT_EQ(a.poisson(6.0), b.poisson(6.0));
         EXPECT_EQ(a.poisson(500.0), b.poisson(500.0));
       }},
      {"fork", false,
       [](Rng& a, Rng& b) { EXPECT_EQ(a.fork().next_u64(), b.fork().next_u64()); }},
      {"bernoulli_bits", false,
       [half](Rng& a, Rng& b) {
         EXPECT_EQ(a.bernoulli_bits(64, half), b.bernoulli_bits(64, half));
         EXPECT_EQ(a.bernoulli_bits(0, half), 0u);
         EXPECT_EQ(a.bernoulli_bits(17, half), b.bernoulli_bits(17, half));
       }},
      {"a copy", false,
       [](Rng& a, Rng& b) {
         Rng copy = a;
         const std::uint64_t want = b.next_u64();
         EXPECT_EQ(copy.next_u64(), want);  // the copy pays its own debt
         EXPECT_EQ(a.next_u64(), want);     // and the original still owes it
       }},
      {"reseed", false,
       [](Rng& a, Rng& b) {
         a.reseed(5);
         b.reseed(5);
         EXPECT_EQ(a.next_u64(), b.next_u64());
       }},
  };
  std::uint64_t seed = 100;
  for (const auto& run : runs) {
    for (const Read& read : reads) {
      SCOPED_TRACE(::testing::Message()
                   << read.name << " after " << ::testing::PrintToString(run));
      Rng a{++seed}, b{seed};
      if (read.cache_spare) {
        ASSERT_EQ(a.normal(), b.normal());
      }
      for (const std::uint64_t n : run) {
        a.discard(n);
        for (std::uint64_t k = 0; k < n; ++k) b.next_u64();
      }
      read.check(a, b);
      EXPECT_EQ(a.next_u64(), b.next_u64());  // the streams go on together
    }
  }
}

// ---------------------------------------------------------------- stats

TEST(OnlineStatsTest, Basics) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(2);
  s.add(4);
  s.add(6);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.sum(), 12.0);
}

TEST(SampleSetTest, Percentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SampleSetTest, EmptyIsZero) {
  SampleSet s;
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_TRUE(s.empty());
}

TEST(SampleSetTest, SingleSample) {
  SampleSet s;
  s.add(7.5);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.5);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.5);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.5);
}

TEST(JainTest, PerfectFairness) {
  const double equal[] = {5, 5, 5};
  EXPECT_DOUBLE_EQ(jain_index(equal), 1.0);
}

TEST(JainTest, WorstCase) {
  const double unfair[] = {1, 0, 0, 0};
  EXPECT_DOUBLE_EQ(jain_index(unfair), 0.25);
}

TEST(JainTest, Degenerate) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  const double zeros[] = {0, 0};
  EXPECT_DOUBLE_EQ(jain_index(zeros), 1.0);
}

// ------------------------------------------------------- windowed filters

TEST(WindowedMaxTest, TracksAndExpires) {
  WindowedMax<double> f{100};
  f.update(0, 5);
  f.update(50, 3);
  EXPECT_DOUBLE_EQ(f.get(50), 5.0);
  // t=120: the 5 at t=0 is older than 120-100=20 -> expired.
  EXPECT_DOUBLE_EQ(f.get(120), 3.0);
  EXPECT_DOUBLE_EQ(f.get(500, -1.0), -1.0);  // everything expired
}

TEST(WindowedMinTest, TracksMin) {
  WindowedMin<std::int64_t> f{1000};
  f.update(0, 50);
  f.update(10, 70);
  f.update(20, 40);
  EXPECT_EQ(f.get(20), 40);
  f.update(30, 60);
  EXPECT_EQ(f.get(30), 40);
}

TEST(WindowedMaxTest, BruteForceEquivalence) {
  Rng rng{31};
  WindowedMax<double> f{200};
  std::vector<std::pair<Time, double>> samples;
  Time t = 0;
  for (int i = 0; i < 500; ++i) {
    t += rng.uniform_int(1, 30);
    const double v = rng.uniform(0, 100);
    samples.emplace_back(t, v);
    f.update(t, v);
    double expect = -1;
    for (const auto& [st, sv] : samples) {
      if (st >= t - 200) expect = std::max(expect, sv);
    }
    ASSERT_DOUBLE_EQ(f.get(t, -1), expect) << "at step " << i;
  }
}

TEST(WindowedMeanTest, Window) {
  WindowedMean m{100};
  m.update(0, 10);
  m.update(50, 20);
  EXPECT_DOUBLE_EQ(m.get(50), 15.0);
  EXPECT_DOUBLE_EQ(m.get(120), 20.0);  // first sample expired
  EXPECT_DOUBLE_EQ(m.get(500, 42.0), 42.0);
}

TEST(WindowedMeanTest, ShrinkExpiresImmediately) {
  WindowedMean m{200};
  m.update(0, 10);
  m.update(100, 20);
  m.update(190, 30);
  ASSERT_EQ(m.size(), 3u);
  // Shrinking must expire against the newest sample's time (190) right
  // away, not wait for the next update: samples older than 190-50 go.
  m.set_window(50);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m.get(190), 30.0);
  // Growing the window never resurrects expired samples.
  m.set_window(500);
  EXPECT_EQ(m.size(), 1u);
}

TEST(WindowedMaxTest, ShrinkExpiresImmediately) {
  WindowedMax<double> f{200};
  f.update(0, 50);   // the maximum, about to become stale
  f.update(100, 3);
  ASSERT_EQ(f.size(), 2u);
  f.set_window(50);  // 50@t=0 is older than 100-50: must go *now*
  EXPECT_EQ(f.size(), 1u);
  EXPECT_DOUBLE_EQ(f.get(100), 3.0);
}

TEST(WindowedMeanTest, ExactAfterWindowRestart) {
  WindowedMean m{100};
  m.update(0, 1e15);
  m.update(10, 3e15);
  // Query far in the future: everything expires, the sum must reset to
  // exactly zero (no residue from the 1e15-scale samples).
  EXPECT_DOUBLE_EQ(m.get(1000, -1.0), -1.0);
  m.update(1000, 1e-9);
  EXPECT_DOUBLE_EQ(m.get(1000), 1e-9);
  // Restart via update alone (push precedes expiry): single survivor's
  // mean is bit-exact too.
  m.update(5000, 2e-9);
  EXPECT_DOUBLE_EQ(m.get(5000), 2e-9);
}

// The long-run drift regression: 10M updates of large positive values
// (accumulating subtract-rounding residue in an unguarded incremental
// sum), then a window restart into a tiny-value regime where any retained
// residue dwarfs the true mean. Relative error vs a brute-force recompute
// must stay under 1e-9 throughout.
TEST(WindowedMeanTest, DriftBelow1e9After10MUpdates) {
  Rng rng{97};
  const Duration kWindow = 100;
  WindowedMean m{kWindow};
  std::deque<std::pair<Time, double>> mirror;

  const auto exact_mean = [&](Time now) {
    while (!mirror.empty() && mirror.front().first < now - kWindow) {
      mirror.pop_front();
    }
    double sum = 0.0;
    for (const auto& [ts, v] : mirror) sum += v;
    return mirror.empty() ? 0.0 : sum / static_cast<double>(mirror.size());
  };
  double worst = 0.0;
  const auto check = [&](Time now) {
    const double exact = exact_mean(now);
    const double inc = m.get(now, 0.0);
    const double rel = std::abs(inc - exact) / std::abs(exact);
    worst = std::max(worst, rel);
    ASSERT_LT(rel, 1e-9) << "at t=" << now;
  };

  // Phase 1: 10M updates, one per tick, values in [1e5, 1e6).
  Time t = 0;
  for (int i = 0; i < 10'000'000; ++i) {
    ++t;
    const double v = rng.uniform(1e5, 1e6);
    m.update(t, v);
    mirror.emplace_back(t, v);
    if (i % 100'000 == 0) check(t);
  }
  check(t);

  // Phase 2: gap long enough to drain the window, then 10k tiny samples.
  t += 10 * kWindow;
  mirror.clear();
  for (int i = 0; i < 10'000; ++i) {
    ++t;
    const double v = rng.uniform(1e-9, 2e-9);
    m.update(t, v);
    mirror.emplace_back(t, v);
    if (i % 500 == 0) check(t);
  }
  check(t);
  // The whole point of the exact-resum fix: worst-case drift is tiny.
  EXPECT_LT(worst, 1e-9);
}

// ---------------------------------------------------------------- bitvec

TEST(BitVecTest, PushReadRoundtrip) {
  BitVec b;
  b.push_uint(0b1011, 4);
  b.push_uint(0xABCD, 16);
  b.push_bit(true);
  EXPECT_EQ(b.size(), 21u);
  EXPECT_EQ(b.read_uint(0, 4), 0b1011u);
  EXPECT_EQ(b.read_uint(4, 16), 0xABCDu);
  EXPECT_TRUE(b.bit(20));
}

TEST(BitVecTest, ReadOutOfRangeThrows) {
  BitVec b(8);
  EXPECT_THROW(b.read_uint(5, 4), std::out_of_range);
  EXPECT_THROW(b.bit(8), std::out_of_range);
}

TEST(BitVecTest, FlipAndSet) {
  BitVec b(4);
  b.set_bit(2, true);
  EXPECT_TRUE(b.bit(2));
  b.flip_bit(2);
  EXPECT_FALSE(b.bit(2));
}

TEST(BitVecTest, Append) {
  BitVec a, b;
  a.push_uint(0b101, 3);
  b.push_uint(0b11, 2);
  a.append(b);
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(a.read_uint(0, 5), 0b10111u);
}

// The per-bit model the packed BitVec is held to: the std::vector<bool>
// storage it replaced, with its one-bit-at-a-time loops.
struct BitModel {
  std::vector<bool> bits;

  void push_uint(std::uint64_t v, std::size_t n) {
    for (std::size_t i = n; i-- > 0;) bits.push_back(((v >> i) & 1ULL) != 0);
  }
  std::uint64_t read_uint(std::size_t pos, std::size_t n) const {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v = (v << 1) | (bits[pos + i] ? 1 : 0);
    return v;
  }
  BitVec to_bitvec() const {
    BitVec b;
    for (bool x : bits) b.push_bit(x);
    return b;
  }
};

void expect_matches(const BitVec& b, const BitModel& m, int step) {
  ASSERT_EQ(b.size(), m.bits.size()) << "step " << step;
  for (std::size_t i = 0; i < m.bits.size(); ++i) {
    ASSERT_EQ(b.bit(i), m.bits[i]) << "bit " << i << " step " << step;
  }
  std::vector<std::uint8_t> bytes((m.bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < m.bits.size(); ++i) {
    if (m.bits[i]) bytes[i / 8] |= static_cast<std::uint8_t>(0x80u >> (i % 8));
  }
  ASSERT_EQ(b.to_bytes(), bytes) << "step " << step;
  ASSERT_EQ(b, m.to_bitvec()) << "step " << step;
}

BitVec random_bits(Rng& rng, std::size_t n, BitModel* model = nullptr) {
  BitVec b;
  for (std::size_t i = 0; i < n; ++i) {
    const bool x = rng.bernoulli(0.5);
    b.push_bit(x);
    if (model != nullptr) model->bits.push_back(x);
  }
  return b;
}

TEST(BitVecTest, PackedPlaneMatchesPerBitModel) {
  // Long enough to cross many word boundaries: an NR AL16 candidate is
  // 1152 bits, plus one word of slack.
  constexpr std::size_t kLimit = 1152 + 64;
  Rng rng{2024};
  // Uniform in [0, hi].
  const auto upto = [&rng](std::size_t hi) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hi)));
  };
  const auto slice = [](const BitModel& m, std::size_t pos, std::size_t len) {
    BitModel s;
    s.bits.assign(m.bits.begin() + static_cast<std::ptrdiff_t>(pos),
                  m.bits.begin() + static_cast<std::ptrdiff_t>(pos + len));
    return s;
  };
  BitVec b;
  BitModel m;
  for (int step = 0; step < 6000; ++step) {
    const auto n = m.bits.size();
    const auto pos = upto(n);
    switch (upto(10)) {
      case 0: {
        const bool x = rng.bernoulli(0.5);
        b.push_bit(x);
        m.bits.push_back(x);
        break;
      }
      case 1: {
        const auto k = upto(64);
        const std::uint64_t v = rng.next_u64();
        b.push_uint(v, k);
        m.push_uint(v, k);
        break;
      }
      case 2:
      case 3: {
        if (n == 0) break;
        const auto i = upto(n - 1);
        if (rng.bernoulli(0.5)) {
          const bool x = rng.bernoulli(0.5);
          b.set_bit(i, x);
          m.bits[i] = x;
        } else {
          b.flip_bit(i);
          m.bits[i] = !m.bits[i];
        }
        break;
      }
      case 4: {
        BitModel src_model;
        const BitVec src = random_bits(rng, upto(n - pos), &src_model);
        b.write_range(pos, src);
        std::copy(src_model.bits.begin(), src_model.bits.end(),
                  m.bits.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
      }
      case 5: {
        const auto len = upto(n - pos);
        BitVec out = random_bits(rng, 300);  // reused capacity, stale bits
        b.copy_range(pos, len, out);
        expect_matches(out, slice(m, pos, len), step);
        break;
      }
      case 6: {
        const auto k = upto(std::min<std::size_t>(64, n - pos));
        ASSERT_EQ(b.read_uint(pos, k), m.read_uint(pos, k)) << "step " << step;
        std::uint64_t window = 0;
        for (std::size_t i = 0; i < 64; ++i) {
          const bool x = pos + i < n && m.bits[pos + i];
          window |= static_cast<std::uint64_t>(x) << (63 - i);
        }
        ASSERT_EQ(b.window(pos), window) << "step " << step;
        break;
      }
      case 7: {
        const auto s = slice(m, pos, upto(n - pos));
        const auto ones = static_cast<std::size_t>(
            std::count(s.bits.begin(), s.bits.end(), true));
        ASSERT_EQ(b.popcount(pos, s.bits.size()), ones) << "step " << step;
        break;
      }
      case 8: {
        BitModel other_model;
        const BitVec other = random_bits(rng, upto(n - pos), &other_model);
        std::size_t diff = 0;
        for (std::size_t i = 0; i < other.size(); ++i) {
          diff += m.bits[pos + i] != other_model.bits[i] ? 1 : 0;
        }
        ASSERT_EQ(b.hamming(pos, other), diff) << "step " << step;
        break;
      }
      case 9: {
        BitModel other_model;
        b.append(random_bits(rng, upto(130), &other_model));
        m.bits.insert(m.bits.end(), other_model.bits.begin(),
                      other_model.bits.end());
        break;
      }
      default: {
        if (n == 0) break;
        const auto w = upto(b.num_words() - 1);
        const std::size_t valid = std::min<std::size_t>(64, n - 64 * w);
        std::uint64_t mask = rng.next_u64();
        if (valid < 64) mask &= ~0ULL << (64 - valid);
        b.xor_word(w, mask);
        for (std::size_t i = 0; i < valid; ++i) {
          if (((mask >> (63 - i)) & 1) != 0) {
            m.bits[64 * w + i] = !m.bits[64 * w + i];
          }
        }
        break;
      }
    }
    expect_matches(b, m, step);
    if (m.bits.size() > kLimit) {
      // Reuse after clear(): no stale bits may survive in the storage.
      b.clear();
      m.bits.clear();
      EXPECT_EQ(b, BitVec{});
      EXPECT_TRUE(b.empty());
    }
  }
}

TEST(BitVecTest, RangeOperationsCheckTheirRange) {
  BitVec b(130);
  BitVec out;
  EXPECT_THROW(b.copy_range(100, 31, out), std::out_of_range);
  EXPECT_THROW(b.copy_range(131, 0, out), std::out_of_range);
  EXPECT_THROW(b.write_range(120, BitVec(11)), std::out_of_range);
  EXPECT_THROW(b.popcount(1, 130), std::out_of_range);
  EXPECT_THROW(b.hamming(2, BitVec(129)), std::out_of_range);
  EXPECT_THROW(b.window(131), std::out_of_range);
  EXPECT_THROW(b.read_uint(0, 65), std::out_of_range);
  EXPECT_THROW(b.push_uint(0, 65), std::out_of_range);
  // Word 2 holds bits 128..129; a mask reaching past them is refused.
  EXPECT_THROW(b.xor_word(2, 1ULL << 61), std::out_of_range);
  EXPECT_THROW(b.xor_word(3, 0), std::out_of_range);
  EXPECT_NO_THROW(b.xor_word(2, 3ULL << 62));
  EXPECT_EQ(b.popcount(128, 2), 2u);
  // The exact end is a valid, empty range.
  EXPECT_NO_THROW(b.copy_range(130, 0, out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(b.window(130), 0u);
}

TEST(BitVecTest, FromBytesClearsPaddingBits) {
  Rng rng{7};
  for (std::size_t nbits = 0; nbits <= 200; ++nbits) {
    std::vector<std::uint8_t> bytes((nbits + 7) / 8);
    for (auto& x : bytes) x = static_cast<std::uint8_t>(rng.next_u64());
    const std::size_t used = nbits % 8;  // bits of the last byte in use
    if (used != 0) bytes.back() |= static_cast<std::uint8_t>(0xFF >> used);
    const BitVec b = BitVec::from_bytes(bytes.data(), nbits);
    BitVec want;
    for (std::size_t i = 0; i < nbits; ++i) {
      want.push_bit((bytes[i / 8] & (0x80u >> (i % 8))) != 0);
    }
    ASSERT_EQ(b, want) << nbits;
    auto padded = bytes;
    if (used != 0) padded.back() &= static_cast<std::uint8_t>(0xFF << (8 - used));
    ASSERT_EQ(b.to_bytes(), padded) << nbits;
  }
}

// from_bytes and to_bytes move whole words eight bytes at a time; held
// here to the byte loops they replace for every length 0..300. The input
// ends at a page the process may not read, so a word load that reaches
// past ceil(nbits / 8) bytes faults instead of passing unnoticed.
TEST(BitVecTest, BytesMatchTheByteLoop) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  void* mem = mmap(nullptr, 2 * page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  auto* guard = static_cast<std::uint8_t*>(mem) + page;
  ASSERT_EQ(mprotect(guard, page, PROT_NONE), 0);
  Rng rng{301};
  for (std::size_t nbits = 0; nbits <= 300; ++nbits) {
    const std::size_t nbytes = (nbits + 7) / 8;
    std::uint8_t* data = guard - nbytes;
    for (std::size_t i = 0; i < nbytes; ++i) {
      data[i] = static_cast<std::uint8_t>(rng.next_u64());
    }
    const BitVec b = BitVec::from_bytes(data, nbits);
    BitVec want;
    for (std::size_t i = 0; i < nbits; ++i) {
      want.push_bit(((data[i / 8] >> (7 - i % 8)) & 1) != 0);
    }
    ASSERT_EQ(b, want) << nbits;
    std::vector<std::uint8_t> bytes(nbytes, 0);
    for (std::size_t i = 0; i < nbits; ++i) {
      if (want.bit(i)) bytes[i / 8] |= static_cast<std::uint8_t>(0x80 >> (i % 8));
    }
    ASSERT_EQ(b.to_bytes(), bytes) << nbits;
    for (std::size_t w = 0; w < b.num_words(); ++w) {
      ASSERT_EQ(b.word(w), b.window(64 * w)) << nbits << " word " << w;
    }
    EXPECT_THROW(b.word(b.num_words()), std::out_of_range);
  }
  munmap(mem, 2 * page);
}

TEST(BitVecTest, ConstructedOnesKeepZeroTail) {
  for (std::size_t n : {0u, 1u, 63u, 64u, 65u, 127u, 200u}) {
    BitVec ones(n, true);
    BitVec want;
    for (std::size_t i = 0; i < n; ++i) want.push_bit(true);
    EXPECT_EQ(ones, want) << n;
    EXPECT_EQ(ones.popcount(0, n), n);
  }
}

// ------------------------------------------------------------------ crc

TEST(CrcTest, SensitiveToEveryBit) {
  BitVec b;
  b.push_uint(0xDEADBEEF, 32);
  const auto base = crc16(b);
  for (std::size_t i = 0; i < b.size(); ++i) {
    BitVec c = b;
    c.flip_bit(i);
    EXPECT_NE(crc16(c), base) << "bit " << i;
  }
}

TEST(CrcTest, RntiMasking) {
  BitVec b;
  b.push_uint(0x1234, 16);
  EXPECT_EQ(crc16_rnti(b, 0), crc16(b));
  EXPECT_EQ(crc16_rnti(b, 0xFFFF), static_cast<std::uint16_t>(crc16(b) ^ 0xFFFF));
  // Unmasking with the right RNTI recovers the plain CRC.
  EXPECT_EQ(static_cast<std::uint16_t>(crc16_rnti(b, 0x5A5A) ^ 0x5A5A), crc16(b));
}

TEST(CrcTest, EmptyIsInit) {
  BitVec b;
  EXPECT_EQ(crc16(b), 0xFFFF);
}

TEST(CrcTest, RangeMatchesPrefixCopy) {
  BitVec b;
  b.push_uint(0xCAFEBABE, 32);
  b.push_uint(0x5A5, 12);
  for (std::size_t len : {0u, 1u, 13u, 32u, 44u}) {
    BitVec prefix;
    for (std::size_t i = 0; i < len; ++i) prefix.push_bit(b.bit(i));
    EXPECT_EQ(crc16_range(b, 0, len), crc16(prefix)) << "len " << len;
  }
  // Interior range: same bits, different surroundings.
  BitVec mid;
  for (std::size_t i = 8; i < 24; ++i) mid.push_bit(b.bit(i));
  EXPECT_EQ(crc16_range(b, 8, 16), crc16(mid));
}

// The bit-at-a-time CRC the table-driven crc16_range replaced.
std::uint16_t crc16_bitwise(const BitVec& bits, std::size_t pos,
                            std::size_t len) {
  std::uint16_t crc = 0xFFFF;
  for (std::size_t i = pos; i < pos + len; ++i) {
    const bool msb = (crc & 0x8000) != 0;
    crc = static_cast<std::uint16_t>(crc << 1);
    if (msb != bits.bit(i)) crc ^= 0x1021;
  }
  return crc;
}

TEST(CrcTest, TableDrivenMatchesBitwiseAtEveryOffset) {
  Rng rng{16};
  const BitVec b = random_bits(rng, 64 + 200);
  for (std::size_t pos = 0; pos < 64; ++pos) {
    for (std::size_t len = 0; len <= 200; ++len) {
      ASSERT_EQ(crc16_range(b, pos, len), crc16_bitwise(b, pos, len))
          << "pos " << pos << " len " << len;
    }
  }
  EXPECT_THROW(crc16_range(b, 64, 201), std::out_of_range);
}

// CRC-32/ISO-HDLC a byte per iteration, its bits shifted out one by one:
// the reference the sliced crc32 must match.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t len,
                            std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return ~c;
}

TEST(CrcTest, Crc32MatchesBytewiseReference) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  Rng rng{32};
  std::vector<unsigned char> buf(16 + 300);
  for (auto& byte : buf) byte = static_cast<unsigned char>(rng.next_u64());
  // Every alignment and every length through several 8-byte slices, each
  // continuing a random running checksum and split at a random point.
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const unsigned char* p = buf.data() + off;
      const auto seed = static_cast<std::uint32_t>(rng.next_u64());
      const std::uint32_t want = crc32_bytewise(p, len, seed);
      ASSERT_EQ(crc32(p, len, seed), want) << "off " << off << " len " << len;
      const auto split = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(len)));
      ASSERT_EQ(crc32(p + split, len - split, crc32(p, split, seed)), want)
          << "off " << off << " len " << len << " split " << split;
    }
  }
}

}  // namespace
}  // namespace pbecc::util
