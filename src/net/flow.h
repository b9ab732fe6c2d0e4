// Flow driver: the sender/receiver plumbing around a congestion controller.
//
// FlowSender owns sequence numbers, pacing, the congestion window, in-flight
// accounting, BBR-style delivery-rate samples, and packet-threshold + timeout
// loss detection. FlowReceiver acknowledges every delivered packet and lets
// an attached feedback source (the PBE-CC mobile client) stamp its
// physical-layer capacity feedback into each ACK, mirroring Fig 4 of the
// paper.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "net/congestion_controller.h"
#include "net/event_loop.h"
#include "net/link.h"
#include "net/packet.h"

namespace pbecc::net {

using AckHandler = std::function<void(Ack)>;

class FlowSender {
 public:
  struct Config {
    FlowId id = 0;
    util::Time start_time = 0;
    util::Time stop_time = util::kNever;
  };

  FlowSender(EventLoop& loop, Config cfg,
             std::unique_ptr<CongestionController> cc, PacketHandler egress);

  // Deliver an arriving ACK (wired up by the scenario's return path).
  void on_ack(const Ack& ack);

  CongestionController& controller() { return *cc_; }
  const CongestionController& controller() const { return *cc_; }

  std::uint64_t bytes_in_flight() const { return bytes_in_flight_; }
  std::uint64_t total_sent_bytes() const { return total_sent_bytes_; }
  std::uint64_t total_delivered_bytes() const { return delivered_bytes_; }
  std::uint64_t total_lost_packets() const { return lost_packets_; }
  util::Duration smoothed_rtt() const { return srtt_; }
  bool stopped() const { return loop_.now() >= cfg_.stop_time; }

 private:
  void wake();
  void try_send();
  void send_packet();
  void detect_threshold_losses(std::uint64_t acked_seq);
  void arm_watchdog();

  struct InFlight {
    std::int32_t bytes;
    util::Time sent_time;
  };

  EventLoop& loop_;
  Config cfg_;
  std::unique_ptr<CongestionController> cc_;
  PacketHandler egress_;

  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, InFlight> in_flight_;
  std::uint64_t bytes_in_flight_ = 0;

  std::uint64_t delivered_bytes_ = 0;       // cumulative acked
  util::Time delivered_time_ = 0;           // time of last delivery update
  std::uint64_t total_sent_bytes_ = 0;
  std::uint64_t lost_packets_ = 0;

  util::Time next_send_time_ = 0;
  bool wake_pending_ = false;

  util::Time last_ack_time_ = 0;
  util::Duration srtt_ = 0;
  bool watchdog_armed_ = false;
};

class FlowReceiver {
 public:
  // Called for every delivered packet, before the ACK is emitted; the
  // PBE-CC client uses this to fill the feedback fields.
  using FeedbackFiller = std::function<void(const Packet&, util::Time now, Ack&)>;
  // Observer for metrics collection.
  using DeliveryObserver = std::function<void(const Packet&, util::Time now)>;

  FlowReceiver(EventLoop& loop, FlowId id, AckHandler ack_out);

  // Entry point from the last hop (the cellular stack's in-order delivery).
  void on_packet(Packet pkt);

  void set_feedback_filler(FeedbackFiller f) { feedback_ = std::move(f); }
  void set_delivery_observer(DeliveryObserver o) { observer_ = std::move(o); }

  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  EventLoop& loop_;
  FlowId id_;
  AckHandler ack_out_;
  FeedbackFiller feedback_;
  DeliveryObserver observer_;
  std::uint64_t packets_received_ = 0;
  std::uint64_t bytes_received_ = 0;
};

}  // namespace pbecc::net
