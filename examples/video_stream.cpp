// Video streaming over a busy cell: the application the paper's
// introduction motivates (low latency AND high throughput at the same
// time).
//
// A 4K-ish stream needs 25 Mbit/s sustained; the player keeps a playback
// buffer and stalls when it runs dry. We replay the same busy-cell
// scenario under PBE-CC, BBR and CUBIC and report video-level metrics:
// startup time, rebuffer count/time, and the delay the (interactive)
// viewer would experience.
//
//   ./build/examples/video_stream
#include <cstdio>

#include "sim/scenario.h"
#include "util/cli.h"

using namespace pbecc;

namespace {

struct VideoMetrics {
  double startup_s = 0;       // time to fill 2 s of buffer
  int rebuffers = 0;          // buffer-empty events
  double rebuffer_time_s = 0; // total stalled time
  double avg_tput_mbps = 0;
  double p95_delay_ms = 0;
};

VideoMetrics play(const std::string& algo) {
  constexpr double kBitrateMbps = 25.0;
  constexpr double kStartupBufferS = 2.0;

  sim::ScenarioConfig cfg;
  cfg.seed = 2026;
  cfg.cells = {{10.0, 0.4}, {10.0, 0.4}};  // busy two-carrier site
  sim::Scenario s{cfg};
  sim::UeSpec ue;
  ue.cell_indices = {0, 1};
  ue.trace = phy::MobilityTrace::stationary(-93.0);
  s.add_ue(ue);
  sim::BackgroundSpec bg;
  bg.n_users = 4;
  bg.sessions_per_sec = 0.6;
  s.add_background(bg);

  sim::FlowSpec fs;
  fs.algo = algo;
  fs.start = 100 * util::kMillisecond;
  fs.stop = 40 * util::kSecond;
  const int f = s.add_flow(fs);
  s.run_until(fs.stop);
  s.stats(f).finish(fs.stop);

  // Replay the 100 ms throughput windows through a player model.
  VideoMetrics m;
  m.avg_tput_mbps = s.stats(f).avg_tput_mbps();
  m.p95_delay_ms = s.stats(f).p95_delay_ms();
  double buffer_s = 0;
  bool started = false, stalled = false;
  double t = 0;
  for (double w : s.stats(f).window_tputs_mbps().samples()) {
    t += 0.1;
    buffer_s += 0.1 * (w / kBitrateMbps);  // seconds of video downloaded
    if (!started) {
      if (buffer_s >= kStartupBufferS) {
        started = true;
        m.startup_s = t;
      }
      continue;
    }
    if (stalled) {
      m.rebuffer_time_s += 0.1;
      if (buffer_s >= 1.0) stalled = false;  // resume with 1 s in hand
      continue;
    }
    buffer_s -= 0.1;  // playback consumes real time
    if (buffer_s <= 0) {
      buffer_s = 0;
      stalled = true;
      ++m.rebuffers;
      m.rebuffer_time_s += 0.1;
    }
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  util::parse(argc, argv, {});
  std::printf("25 Mbit/s video on a busy two-carrier cell, 40 s session\n\n");
  std::printf("%-8s %10s %10s %12s %12s %10s\n", "algo", "startup(s)",
              "rebuffers", "stalled(s)", "tput(Mb/s)", "p95-d(ms)");
  for (const std::string algo : {"pbe", "bbr", "cubic"}) {
    const auto m = play(algo);
    std::printf("%-8s %10.1f %10d %12.1f %12.1f %10.1f\n", algo.c_str(),
                m.startup_s, m.rebuffers, m.rebuffer_time_s, m.avg_tput_mbps,
                m.p95_delay_ms);
  }
  std::printf("\nPBE-CC sustains the bitrate like BBR but its p95 delay stays\n"
              "near the propagation floor — the viewer could video-call at the\n"
              "same time, which the bufferbloated alternatives rule out.\n");
  return 0;
}
