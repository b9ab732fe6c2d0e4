// Per-flow measurement collection, mirroring the paper's methodology
// (§6.1): per-packet one-way delay, and throughput averaged over
// 100-millisecond windows, from which order statistics are reported.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "util/stats.h"
#include "util/time.h"

namespace pbecc::sim {

class FlowStats {
 public:
  void on_delivery(const net::Packet& pkt, util::Time now);

  // Mark the end of measurement (flushes the last partial window).
  void finish(util::Time now);

  // --- Delay (milliseconds) ---
  // A flow that never delivered a packet has no delay distribution; the
  // accessors return NaN rather than a fake 0 ms (which would read as a
  // perfect link in reports). Check delays_ms().empty() or std::isnan.
  const util::SampleSet& delays_ms() const { return delays_ms_; }
  double avg_delay_ms() const;
  double p95_delay_ms() const;
  double median_delay_ms() const;

  // --- Throughput (Mbit/s), per window and overall ---
  const util::SampleSet& window_tputs_mbps() const { return window_tputs_; }
  double avg_tput_mbps() const;

  std::uint64_t packets() const { return packets_; }
  std::uint64_t bytes() const { return bytes_; }

 private:
  void roll_windows(util::Time now);

  util::SampleSet delays_ms_;
  util::SampleSet window_tputs_;

  util::Time window_start_ = -1;
  std::int64_t window_bytes_ = 0;

  std::uint64_t packets_ = 0;
  std::uint64_t bytes_ = 0;
  util::Time first_ = -1;
  util::Time last_ = -1;
  bool finished_ = false;
};

}  // namespace pbecc::sim
