// Self-tests of the benchmark's statistics and ledger:
//   * median and the nearest-rank percentile with at least ten samples
//     beyond it (spread.py --self-test covers the quartiles);
//   * ledger closure: self times plus unattributed time equal the wall;
//   * attribution: a delay injected around one harnessed call raises that
//     span's self time and no other row of the ledger.
//
//   python3 perfbench/run.py --self-test
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ledger.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b, double tol = 1e-9) { return std::abs(a - b) <= tol; }

void test_order_statistics() {
  using namespace perfbench;
  expect(median({3, 1, 2}) == 2, "median of odd count");
  expect(median({4, 1, 3, 2}) == 2.5, "median of even count");

  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(percentile(hundred, 50) == 50, "p50 of 1..100");
  expect(percentile(hundred, 99) == 99, "p99 of 1..100");
  expect(percentile(hundred, 100) == 100, "p100 of 1..100");
  expect(samples_beyond(1000, 99) == 10, "ten samples beyond p99 of 1000");
  expect(samples_beyond(999, 99) == 9, "nine samples beyond p99 of 999");
  expect(highest_supported_percentile(1000) == 99, "1000 samples support p99");
  expect(highest_supported_percentile(999) == 90, "999 samples support p90");
  expect(highest_supported_percentile(10000) == 99.9, "10000 support p99.9");
  expect(highest_supported_percentile(20) == 50, "20 samples support p50");
  expect(highest_supported_percentile(19) == 0, "19 samples support nothing");
}

void test_ledger_closure() {
  using namespace perfbench;
  // root [0, 100) with children a [10, 40) and b [50, 90); a has child
  // c [20, 30); b's child d [85, 95) overhangs b's end. A second root
  // [120, 150) leaves [100, 120) and [150, 200) of the 200 ns wall
  // unattributed.
  const std::vector<std::string> names = {"root", "a", "b", "c", "d"};
  const std::vector<Span> spans = {
      {0, -1, 0, 100}, {1, 0, 10, 40}, {2, 0, 50, 90},
      {3, 1, 20, 30},  {4, 2, 85, 95}, {0, -1, 120, 150},
  };
  const Ledger l = make_ledger(spans, names, 200);
  const double ns = 1e-6;  // one nanosecond in ms
  expect(near(l.self("root"), (30 + 30) * ns), "root self time");
  expect(near(l.self("a"), 20 * ns), "a self time");
  expect(near(l.self("b"), 35 * ns), "b self time (overhanging child clipped)");
  expect(near(l.self("c"), 10 * ns), "c self time");
  expect(near(l.inclusive("root"), 130 * ns), "root inclusive time");
  expect(near(l.unattributed_ms, 70 * ns), "unattributed time");
  // d pokes 5 ns out of b: the only way the rows can exceed the wall.
  expect(near(l.closure_ms(), l.wall_ms + 5 * ns), "closure up to overhang");

  const std::vector<Span> nested = {
      {0, -1, 0, 100}, {1, 0, 10, 40}, {2, 0, 50, 90}, {3, 1, 20, 30},
  };
  const Ledger n = make_ledger(nested, names, 130);
  expect(near(n.closure_ms(), n.wall_ms), "closure of properly nested spans");
  Ledger twice = n;
  twice.merge(n);
  expect(near(twice.closure_ms(), twice.wall_ms) && near(twice.wall_ms, 2 * n.wall_ms),
         "closure survives merge");
  Ledger scaled = n;
  scaled.scale(0.5);
  expect(near(scaled.closure_ms(), scaled.wall_ms) && near(scaled.self("a"), 10 * ns),
         "closure survives scaling to the reference host speed");
}

// Busy work of about `us` microseconds that the optimiser cannot drop.
void spin(int us) {
  const std::int64_t end = perfbench::now_ns() + std::int64_t{us} * 1000;
  volatile std::uint64_t x = 0;
  while (perfbench::now_ns() < end) x = x + 1;
}

// Three nested layers, the way the workloads wrap library calls; `delay_in`
// names the span (or "" for none, "gap" for outside every span) that gets
// an extra sleep around its harnessed call.
perfbench::Ledger harness(const std::string& delay_in, int delay_ms) {
  using namespace perfbench;
  Tracer tr(true);
  const auto step = tr.intern("step");
  const auto a = tr.intern("a");
  const auto b = tr.intern("b");
  const auto inject = [&](const std::string& where) {
    if (where == delay_in) std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  };
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < 5; ++i) {
    const Tracer::Scope s(tr, step);
    spin(500);
    {
      const Tracer::Scope sa(tr, a);
      spin(500);
      {
        const Tracer::Scope sb(tr, b);
        spin(500);
        inject("b");
      }
      inject("a");
    }
    spin(500);
    inject("step");
  }
  inject("gap");
  return make_ledger(tr.spans(), tr.names(), now_ns() - t0);
}

void test_attribution() {
  constexpr int kDelayMs = 20;
  constexpr double kAdded = 5 * kDelayMs;  // five steps
  for (const std::string where : {"b", "a", "step"}) {
    const perfbench::Ledger base = harness("", kDelayMs);
    const perfbench::Ledger slow = harness(where, kDelayMs);
    for (const std::string row : {"step", "a", "b"}) {
      const double delta = slow.self(row) - base.self(row);
      if (row == where) {
        expect(delta > 0.9 * kAdded, "delay in " + where + " raises its self time");
      } else {
        expect(std::abs(delta) < kAdded / 4,
               "delay in " + where + " leaves " + row + " alone (moved " +
                   std::to_string(delta) + " ms)");
      }
    }
    expect(std::abs(slow.unattributed_ms - base.unattributed_ms) < kAdded / 4,
           "delay in " + where + " leaves unattributed time alone");
    expect(std::abs(slow.closure_ms() - slow.wall_ms) < 1e-6,
           "ledger closes with a delay in " + where);
  }
  // A delay outside every span shows up as unattributed time only. The
  // harness injects it once, after the last step.
  const perfbench::Ledger base = harness("", kDelayMs);
  const perfbench::Ledger gap = harness("gap", kDelayMs);
  expect(gap.unattributed_ms - base.unattributed_ms > 0.9 * kDelayMs,
         "a delay between spans is unattributed");
  for (const std::string row : {"step", "a", "b"}) {
    expect(std::abs(gap.self(row) - base.self(row)) < kDelayMs / 4.0,
           "a delay between spans leaves " + row + " alone");
  }
}

void test_tracer_parents() {
  perfbench::Tracer tr(true);
  const auto outer = tr.intern("outer");
  const auto leaf = tr.intern("leaf");
  expect(tr.intern("outer") == outer, "intern is idempotent");
  tr.add(leaf, 1, 2);
  tr.open(outer);
  tr.add(leaf, 3, 4);
  tr.close();
  const auto& s = tr.spans();
  expect(s.size() == 3 && s[0].parent == -1 && s[1].parent == -1 && s[2].parent == 1,
         "spans take the innermost open span as parent");
  perfbench::Tracer off(false);
  off.open(off.intern("x"));
  off.add(0, 1, 2);
  off.close();
  expect(off.spans().empty(), "a disabled tracer records nothing");
}

}  // namespace

int main() {
  test_order_statistics();
  test_ledger_closure();
  test_attribution();
  test_tracer_parents();
  if (g_failures == 0) std::printf("perfbench self-tests passed\n");
  return g_failures == 0 ? 0 : 1;
}
