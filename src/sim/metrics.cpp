#include "sim/metrics.h"

#include <limits>

namespace pbecc::sim {

namespace {
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
// Throughput averaging window (paper §6.1).
constexpr util::Duration kWindow = 100 * util::kMillisecond;
}  // namespace

double FlowStats::avg_delay_ms() const {
  return delays_ms_.empty() ? kNan : delays_ms_.mean();
}

double FlowStats::p95_delay_ms() const {
  return delays_ms_.empty() ? kNan : delays_ms_.percentile(95);
}

double FlowStats::median_delay_ms() const {
  return delays_ms_.empty() ? kNan : delays_ms_.percentile(50);
}

void FlowStats::roll_windows(util::Time now) {
  while (now - window_start_ >= kWindow) {
    window_tputs_.add(static_cast<double>(window_bytes_) * 8.0 /
                      util::to_seconds(kWindow) / 1e6);
    window_bytes_ = 0;
    window_start_ += kWindow;
  }
}

void FlowStats::on_delivery(const net::Packet& pkt, util::Time now) {
  if (finished_) return;
  if (first_ < 0) {
    first_ = now;
    window_start_ = now;
  }
  last_ = now;
  ++packets_;
  bytes_ += static_cast<std::uint64_t>(pkt.bytes);

  delays_ms_.add(util::to_millis(now - pkt.sent_time));

  roll_windows(now);
  window_bytes_ += pkt.bytes;
}

void FlowStats::finish(util::Time now) {
  if (finished_) return;
  finished_ = true;  // latch even with no deliveries: measurement is over
  if (first_ < 0) return;
  if (window_bytes_ > 0 && now > window_start_) {
    // Flush the final partial window at its actual length.
    window_tputs_.add(static_cast<double>(window_bytes_) * 8.0 /
                      util::to_seconds(now - window_start_) / 1e6);
  }
}

double FlowStats::avg_tput_mbps() const {
  if (first_ < 0 || last_ <= first_) return 0;
  return static_cast<double>(bytes_) * 8.0 / util::to_seconds(last_ - first_) / 1e6;
}

}  // namespace pbecc::sim
