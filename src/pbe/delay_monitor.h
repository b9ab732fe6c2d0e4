// One-way-delay monitoring and bottleneck-state detection (paper §4.2.2).
//
// Dprop is the minimum one-way delay over a 10-second window (BBR-style).
// The Internet-bottleneck trigger fires when Npkt consecutive packets
// exceed the threshold
//     Dth = Dprop + 3*8 ms (max HARQ retransmission chain) + 3 ms (jitter)
// and the reverse transition requires Npkt consecutive packets below Dth.
// Npkt = 6 * Ct / MSS — the packets carried in six subframes at the
// current transport rate (Eqn 6) — so both thresholds scale with rate.
// Only *relative* delay matters, so sender/client clock sync is not
// required (the same constant offset appears in Dprop and in each sample).
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/time.h"
#include "util/windowed_filter.h"

namespace pbecc::pbe {

class DelayMonitor {
 public:
  DelayMonitor();

  // Feed one packet's one-way delay. `ct_bits_per_sf` is the current
  // transport-layer capacity estimate (sets Npkt).
  void on_packet(util::Time now, util::Duration one_way_delay,
                 double ct_bits_per_sf);

  util::Duration dprop(util::Time now) const;
  util::Duration threshold(util::Time now) const;
  std::int64_t npkt(double ct_bits_per_sf) const;

  // True while the monitor believes queuing is building in the Internet
  // (Npkt consecutive packets above threshold, not yet Npkt below).
  bool internet_bottleneck() const { return internet_bottleneck_; }

  std::int64_t consecutive_above() const { return above_; }
  std::int64_t consecutive_below() const { return below_; }

 private:
  mutable util::WindowedMin<util::Duration> dprop_filter_;
  std::int64_t above_ = 0;
  std::int64_t below_ = 0;
  bool internet_bottleneck_ = false;
};

}  // namespace pbecc::pbe
