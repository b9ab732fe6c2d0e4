// Figure 11 (micro-benchmark: cell status):
//  (a) users detected per hour across a day, for a 20 MHz and a 10 MHz cell;
//  (b) CDF of detected users' physical data rate (Mbit/s per PRB).
//
// Substitution note (DESIGN.md): the paper decodes two live cells for 24
// hours. We synthesize a diurnal load profile and simulate a 20-second
// slice per hour, scaling unique-user counts to the hour; the 10 MHz cell
// is switched off between midnight and 3 am as in the paper's data.
#include <cmath>
#include <set>

#include "bench/bench_common.h"
#include "decoder/blind_decoder.h"
#include "sim/scenario.h"

using namespace pbecc;

namespace {

// Relative load over the day, peaking through the 12:00-20:00 block.
double diurnal(int hour) {
  return 0.15 + 0.85 * std::exp(-std::pow((hour - 16.0) / 6.0, 2.0));
}

struct HourResult {
  int users_scaled = 0;
  std::vector<double> rates_mbps_per_prb;
};

HourResult simulate_hour(double cell_mhz, int hour, bool cell_off) {
  HourResult res;
  if (cell_off) return res;
  const double load = diurnal(hour);

  sim::ScenarioConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(hour * 97 + static_cast<int>(cell_mhz));
  cfg.cells = {{cell_mhz, 0.3 * load}};
  sim::Scenario s{cfg};
  sim::BackgroundSpec bg;
  bg.n_users = static_cast<int>(2 + 8 * load);
  bg.sessions_per_sec = 2.5 * load;
  bg.rate_lo = 1e6;
  bg.rate_hi = 12e6;
  bg.rssi_sigma_db = 9.0;  // diverse population incl. weak users
  s.add_background(bg);

  // Count distinct RNTIs on the control channel; record their Rw.
  std::set<phy::Rnti> users;
  decoder::BlindDecoder probe{phy::CellConfig{1, cell_mhz}};
  s.bs().add_pdcch_batch_observer([&](const std::vector<phy::PdcchSubframe>& sfs) {
    for (const auto& sf : sfs) {
      for (const auto& dci : probe.decode(sf)) {
        if (!dci.is_downlink()) continue;
        users.insert(dci.rnti);
        res.rates_mbps_per_prb.push_back(dci.mcs.bits_per_prb() / 1000.0);
      }
    }
  });
  const util::Duration slice = 20 * util::kSecond;
  s.run_until(slice);
  // Scale unique users in the slice to the hour: sessions arrive as a
  // Poisson process, so uniques scale ~linearly until saturation.
  res.users_scaled = static_cast<int>(static_cast<double>(users.size()) *
                                      std::sqrt(3600.0 / util::to_seconds(slice)));
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 1;
  util::parse(argc, argv, {bench::threads(threads)});
  par::ThreadPool pool(threads);
  bench::header("Figure 11: cell status over a day (synthetic diurnal load)");

  // Each (cell, hour) slice is an independent 20 s simulation: fan the
  // whole day out on the pool.
  constexpr std::size_t kHours = 24;
  const auto day = pool.parallel_map(2 * kHours, [&](std::size_t j) {
    const int hour = static_cast<int>(j % kHours);
    return j < kHours ? simulate_hour(20.0, hour, false)
                      : simulate_hour(10.0, hour, hour < 3);  // off 0-3am
  });

  util::SampleSet rates20, rates10;
  std::printf("\n  hour   users(20MHz)  users(10MHz)\n");
  for (std::size_t i = 0; i < kHours; ++i) {
    const int hour = static_cast<int>(i);
    const auto& r20 = day[i];
    const auto& r10 = day[kHours + i];
    for (double r : r20.rates_mbps_per_prb) rates20.add(r);
    for (double r : r10.rates_mbps_per_prb) rates10.add(r);
    std::printf("  %4d   %12d  %12d%s\n", hour, r20.users_scaled,
                r10.users_scaled, hour < 3 ? "   (10 MHz cell off)" : "");
  }

  std::printf("\n  (b) physical data rate of detected users, Mbit/s/PRB "
              "(CDF deciles):\n");
  bench::print_cdf("    20 MHz cell", rates20);
  bench::print_cdf("    10 MHz cell", rates10);
  auto frac_below = [](const util::SampleSet& s, double thr) {
    int n = 0;
    for (double v : s.samples()) n += v < thr ? 1 : 0;
    return s.count() ? 100.0 * n / static_cast<double>(s.count()) : 0.0;
  };
  std::printf("    below 0.9 Mbit/s/PRB (half of max): %.0f%% (20 MHz), "
              "%.0f%% (10 MHz)\n",
              frac_below(rates20, 0.9), frac_below(rates10, 0.9));
  std::printf("\n  Paper shape: user counts peak through hours 12-20 and\n"
              "  collapse overnight; a large majority of users sit below half\n"
              "  of the 1.8 Mbit/s/PRB ceiling (77%%/72%% in the paper).\n");
  return 0;
}
