// Compare all eight congestion-control algorithms on one location profile
// (paper §6.3.1). Usage: compare_algorithms [location-index] [seconds]
// The location is a whole number in 0..39 and seconds in 1..86400;
// anything else exits 2.
#include <cstdio>

#include "sim/algorithms.h"
#include "sim/location.h"
#include "util/cli.h"

using namespace pbecc;

int main(int argc, char** argv) {
  const int loc_idx =
      argc > 1 ? static_cast<int>(util::whole_number_arg(
                     "location-index", argv[1], 0, sim::kNumLocations - 1))
               : 2;
  const int seconds =
      argc > 2 ? static_cast<int>(
                     util::whole_number_arg("seconds", argv[2], 1, 86400))
               : 12;
  const auto loc = sim::location(loc_idx);
  std::printf("%s\n", loc.describe().c_str());
  std::printf("%-8s %10s %10s %10s %10s  %s\n", "algo", "tput(Mb)", "avg-d(ms)",
              "p95-d(ms)", "med-d(ms)", "CA");
  for (const auto& algo : sim::all_algorithms()) {
    const auto r = sim::run_location(loc, algo, seconds * util::kSecond);
    std::printf("%-8s %10.1f %10.1f %10.1f %10.1f  %s\n", algo.c_str(),
                r.avg_tput_mbps, r.avg_delay_ms, r.p95_delay_ms,
                r.median_delay_ms, r.ca_triggered ? "yes" : "no");
  }
  return 0;
}
