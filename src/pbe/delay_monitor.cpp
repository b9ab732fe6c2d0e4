#include "pbe/delay_monitor.h"

#include "net/packet.h"

namespace pbecc::pbe {

namespace {
constexpr util::Duration kDpropWindow = 10 * util::kSecond;
// 3 retransmissions x 8 ms + 3 ms jitter allowance.
constexpr util::Duration kThresholdMargin = (3 * 8 + 3) * util::kMillisecond;
constexpr std::int64_t kMinNpkt = 4;
}  // namespace

DelayMonitor::DelayMonitor() : dprop_filter_(kDpropWindow) {}

util::Duration DelayMonitor::dprop(util::Time now) const {
  return dprop_filter_.get(now, 0);
}

util::Duration DelayMonitor::threshold(util::Time now) const {
  return dprop(now) + kThresholdMargin;
}

std::int64_t DelayMonitor::npkt(double ct_bits_per_sf) const {
  // Eqn 6: packets carried in six subframes at the current rate.
  const double pkts = 6.0 * ct_bits_per_sf / (net::kDefaultMss * 8.0);
  return std::max<std::int64_t>(static_cast<std::int64_t>(pkts), kMinNpkt);
}

void DelayMonitor::on_packet(util::Time now, util::Duration one_way_delay,
                             double ct_bits_per_sf) {
  dprop_filter_.update(now, one_way_delay);
  const util::Duration dth = threshold(now);
  const std::int64_t n = npkt(ct_bits_per_sf);

  if (one_way_delay > dth) {
    ++above_;
    below_ = 0;
    if (!internet_bottleneck_ && above_ >= n) {
      internet_bottleneck_ = true;
      above_ = 0;
    }
  } else {
    ++below_;
    above_ = 0;
    if (internet_bottleneck_ && below_ >= n) {
      internet_bottleneck_ = false;
      below_ = 0;
    }
  }
}

}  // namespace pbecc::pbe
