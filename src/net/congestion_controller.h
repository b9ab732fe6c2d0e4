// The interface every congestion-control algorithm in this repository
// implements — PBE-CC's sender as well as the seven baselines the paper
// compares against. The flow driver (net::Flow) feeds it send/ack/loss
// events and obeys its pacing rate and congestion window.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "net/packet.h"
#include "util/rate.h"
#include "util/time.h"

namespace pbecc::net {

// Everything an algorithm may want to know about one acknowledgement.
struct AckSample {
  util::Time now = 0;
  std::uint64_t seq = 0;
  std::int32_t acked_bytes = 0;

  util::Duration rtt = 0;            // ack receipt - data send
  util::Duration one_way_delay = 0;  // data receipt - data send

  // BBR-style delivery rate sample (bytes acked per unit time between the
  // delivered-counter snapshots), in bits per second. 0 when undefined.
  util::RateBps delivery_rate = 0;
  bool is_app_limited = false;

  std::uint64_t total_delivered_bytes = 0;  // sender cumulative
  std::uint64_t bytes_in_flight = 0;

  // PBE-CC explicit feedback, forwarded verbatim from the ACK.
  std::uint32_t pbe_rate_interval_us = 0;
  bool pbe_internet_bottleneck = false;
  std::uint8_t pbe_confidence = 255;
};

struct LossSample {
  util::Time now = 0;
  std::uint64_t seq = 0;
  std::int32_t lost_bytes = 0;
  std::uint64_t bytes_in_flight = 0;
};

class CongestionController {
 public:
  virtual ~CongestionController() = default;

  virtual void on_packet_sent(util::Time /*now*/, const Packet& /*pkt*/,
                              std::uint64_t /*bytes_in_flight*/) {}
  virtual void on_ack(const AckSample& sample) = 0;
  virtual void on_loss(const LossSample& /*sample*/) {}

  // Bits per second the flow driver should pace at. Must be > 0.
  virtual util::RateBps pacing_rate(util::Time now) const = 0;

  // Congestion window in bytes; in-flight data never exceeds this.
  virtual double cwnd_bytes(util::Time /*now*/) const {
    return std::numeric_limits<double>::max();
  }

  virtual std::string name() const = 0;
};

// Fixed-rate (constant-bit-rate) "controller": used for the paper's
// controlled competitors and fixed-offered-load drill-downs (Figs 2, 8, 18).
class FixedRateController final : public CongestionController {
 public:
  explicit FixedRateController(util::RateBps rate) : rate_(rate) {}

  void on_ack(const AckSample&) override {}
  util::RateBps pacing_rate(util::Time) const override { return rate_; }
  std::string name() const override { return "fixed"; }

 private:
  util::RateBps rate_;
};

}  // namespace pbecc::net
