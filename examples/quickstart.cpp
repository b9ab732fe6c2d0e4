// Quickstart: a single PBE-CC flow over a simulated two-carrier LTE cell.
//
// Demonstrates the public API end to end: build a Scenario (base station +
// cells), register a mobile device, start a PBE-CC flow against it, run,
// and read back throughput/delay statistics plus PBE-CC internals (state,
// capacity feedback, decoder stats).
//
//   ./build/examples/quickstart
#include <cstdio>

#include "sim/location.h"
#include "sim/scenario.h"
#include "util/cli.h"

using namespace pbecc;

int main(int argc, char** argv) {
  util::parse(argc, argv, {});
  // A quiet two-carrier cell site, phone at moderate signal strength.
  sim::ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.cells = {{10.0, 0.02}, {10.0, 0.02}};  // two 10 MHz carriers, idle
  sim::Scenario s{cfg};

  sim::UeSpec ue;
  ue.id = 1;
  ue.cell_indices = {0, 1};
  ue.trace = phy::MobilityTrace::stationary(-92.0);
  s.add_ue(ue);

  sim::FlowSpec flow;
  flow.algo = "pbe";
  flow.ue = 1;
  flow.path.one_way_delay = 25 * util::kMillisecond;  // ~50 ms RTT server
  flow.start = 100 * util::kMillisecond;
  flow.stop = flow.start + 10 * util::kSecond;
  const int f = s.add_flow(flow);

  std::printf("time(s)  state     feedback(Mbit/s)  tput-so-far(Mbit/s)\n");
  for (int sec = 1; sec <= 10; ++sec) {
    s.run_until(flow.start + sec * util::kSecond);
    const auto* client = s.pbe_client(f);
    const char* state = "-";
    switch (client->state()) {
      case pbe::PbeClient::State::kStartup: state = "startup"; break;
      case pbe::PbeClient::State::kWireless: state = "wireless"; break;
      case pbe::PbeClient::State::kInternet: state = "internet"; break;
    }
    std::printf("%6d   %-8s  %16.1f  %19.1f\n", sec, state,
                client->last_feedback_bps() / 1e6,
                s.stats(f).avg_tput_mbps());
  }
  s.run_until(flow.stop + 200 * util::kMillisecond);
  s.stats(f).finish(flow.stop);

  const auto& st = s.stats(f);
  std::printf("\n=== PBE-CC quickstart summary ===\n");
  std::printf("delivered:        %llu packets, %.1f MB\n",
              static_cast<unsigned long long>(st.packets()),
              static_cast<double>(st.bytes()) / 1e6);
  std::printf("avg throughput:   %.1f Mbit/s\n", st.avg_tput_mbps());
  std::printf("one-way delay:    avg %.1f ms, median %.1f ms, p95 %.1f ms\n",
              st.avg_delay_ms(), st.median_delay_ms(), st.p95_delay_ms());
  std::printf("carrier aggregation triggered: %s\n",
              s.bs().ca(1).ever_aggregated() ? "yes" : "no");
  const auto& dec = s.pbe_client(f)->monitor().decoder(1);
  std::printf("blind decoder:    %llu messages from %llu candidates\n",
              static_cast<unsigned long long>(dec.stats().messages_decoded),
              static_cast<unsigned long long>(dec.stats().candidates_tried));
  return 0;
}
