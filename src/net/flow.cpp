#include "net/flow.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"

namespace pbecc::net {

FlowSender::FlowSender(EventLoop& loop, Config cfg,
                       std::unique_ptr<CongestionController> cc,
                       PacketHandler egress)
    : loop_(loop), cfg_(cfg), cc_(std::move(cc)), egress_(std::move(egress)) {
  next_send_time_ = cfg_.start_time;
  delivered_time_ = cfg_.start_time;
  last_ack_time_ = cfg_.start_time;
  loop_.schedule_at(cfg_.start_time, [this] { try_send(); });
}

void FlowSender::wake() {
  if (wake_pending_) return;
  wake_pending_ = true;
  const util::Time at = std::max(next_send_time_, loop_.now());
  loop_.schedule_at(at, [this] {
    wake_pending_ = false;
    try_send();
  });
}

void FlowSender::try_send() {
  const util::Time now = loop_.now();
  if (now >= cfg_.stop_time) return;
  if (now < cfg_.start_time) return;

  const double cwnd = cc_->cwnd_bytes(now);
  while (loop_.now() >= next_send_time_ &&
         static_cast<double>(bytes_in_flight_ + static_cast<std::uint64_t>(cfg_.mss)) <= cwnd) {
    send_packet();
    const util::RateBps rate = std::max(cc_->pacing_rate(loop_.now()), 1000.0);
    next_send_time_ = std::max(next_send_time_, loop_.now()) +
                      util::transmission_delay(cfg_.mss, rate);
    if (loop_.now() >= cfg_.stop_time) return;
  }
  // If pacing (not cwnd) is the limiter, arm a timer for the next slot;
  // cwnd-limited flows resume from on_ack().
  if (static_cast<double>(bytes_in_flight_ + static_cast<std::uint64_t>(cfg_.mss)) <= cwnd) {
    wake();
  }
  arm_watchdog();
}

void FlowSender::send_packet() {
  Packet pkt;
  pkt.flow = cfg_.id;
  pkt.seq = next_seq_++;
  pkt.bytes = cfg_.mss;
  pkt.sent_time = loop_.now();
  pkt.delivered_at_send = delivered_bytes_;
  pkt.delivered_time_at_send = delivered_time_;

  in_flight_.emplace(pkt.seq, InFlight{pkt.bytes, pkt.sent_time});
  bytes_in_flight_ += static_cast<std::uint64_t>(pkt.bytes);
  total_sent_bytes_ += static_cast<std::uint64_t>(pkt.bytes);

  cc_->on_packet_sent(loop_.now(), pkt, bytes_in_flight_);
  static obs::Counter& sent = obs::counter("net.packets_sent");
  sent.inc();
  egress_(std::move(pkt));
}

void FlowSender::on_ack(const Ack& ack) {
  const util::Time now = loop_.now();
  last_ack_time_ = now;

  const auto it = in_flight_.find(ack.seq);
  if (it == in_flight_.end()) return;  // already deemed lost, or duplicate
  bytes_in_flight_ -= static_cast<std::uint64_t>(it->second.bytes);
  in_flight_.erase(it);

  delivered_bytes_ += static_cast<std::uint64_t>(ack.acked_bytes);
  delivered_time_ = now;

  AckSample s;
  s.now = now;
  s.seq = ack.seq;
  s.acked_bytes = ack.acked_bytes;
  s.rtt = now - ack.data_sent_time;
  s.one_way_delay = ack.data_recv_time - ack.data_sent_time;
  s.total_delivered_bytes = delivered_bytes_;
  s.bytes_in_flight = bytes_in_flight_;
  s.pbe_rate_interval_us = ack.pbe_rate_interval_us;
  s.pbe_internet_bottleneck = ack.pbe_internet_bottleneck;
  s.pbe_confidence = ack.pbe_confidence;

  // BBR-style delivery rate: bytes delivered since this packet left,
  // divided by the elapsed delivery-clock time.
  const util::Duration interval = now - ack.delivered_time_at_send;
  if (interval > 0) {
    const auto bytes = static_cast<double>(delivered_bytes_ - ack.delivered_at_send);
    s.delivery_rate = bytes * util::kBitsPerByte /
                      util::to_seconds(interval);
  }

  if (srtt_ == 0) {
    srtt_ = s.rtt;
  } else {
    srtt_ = (7 * srtt_ + s.rtt) / 8;
  }

  static obs::Counter& acks = obs::counter("net.acks_received");
  acks.inc();
  cc_->on_ack(s);
  detect_threshold_losses(ack.seq);
  try_send();
}

void FlowSender::detect_threshold_losses(std::uint64_t acked_seq) {
  if (acked_seq < cfg_.reorder_threshold) return;
  const std::uint64_t lost_below = acked_seq - cfg_.reorder_threshold;
  while (!in_flight_.empty() && in_flight_.begin()->first < lost_below) {
    const auto [seq, meta] = *in_flight_.begin();
    in_flight_.erase(in_flight_.begin());
    bytes_in_flight_ -= static_cast<std::uint64_t>(meta.bytes);
    ++lost_packets_;
    static obs::Counter& losses = obs::counter("net.packets_lost");
    losses.inc();
    obs::emit(obs::EventKind::kPacketLoss, loop_.now(), 0,
              static_cast<std::uint32_t>(cfg_.id),
              static_cast<std::int64_t>(seq), meta.bytes);
    LossSample ls;
    ls.now = loop_.now();
    ls.seq = seq;
    ls.lost_bytes = meta.bytes;
    ls.bytes_in_flight = bytes_in_flight_;
    cc_->on_loss(ls);
  }
}

void FlowSender::arm_watchdog() {
  if (watchdog_armed_) return;
  watchdog_armed_ = true;
  loop_.schedule_in(100 * util::kMillisecond, [this] {
    watchdog_armed_ = false;
    const util::Time now = loop_.now();
    if (now >= cfg_.stop_time) return;
    const util::Duration rto =
        std::max<util::Duration>(cfg_.min_rto, 4 * srtt_);
    if (bytes_in_flight_ > 0 && now - last_ack_time_ > rto) {
      // Retransmission timeout: everything outstanding is presumed lost
      // (e.g. an entire window tail-dropped at the Internet bottleneck).
      std::uint64_t lost = 0;
      for (const auto& [seq, meta] : in_flight_) {
        lost += static_cast<std::uint64_t>(meta.bytes);
        ++lost_packets_;
      }
      const std::uint64_t first_seq = in_flight_.begin()->first;
      in_flight_.clear();
      bytes_in_flight_ = 0;
      static obs::Counter& rtos = obs::counter("net.rtos_fired");
      rtos.inc();
      obs::emit(obs::EventKind::kRtoFired, now, 0,
                static_cast<std::uint32_t>(cfg_.id), 0,
                static_cast<double>(lost));
      LossSample ls;
      ls.now = now;
      ls.seq = first_seq;
      ls.lost_bytes = static_cast<std::int32_t>(std::min<std::uint64_t>(lost, INT32_MAX));
      ls.bytes_in_flight = 0;
      cc_->on_loss(ls);
      last_ack_time_ = now;
    }
    try_send();
  });
}

FlowReceiver::FlowReceiver(EventLoop& loop, FlowId id, AckHandler ack_out)
    : loop_(loop), id_(id), ack_out_(std::move(ack_out)) {}

void FlowReceiver::on_packet(Packet pkt) {
  const util::Time now = loop_.now();
  pkt.recv_time = now;
  ++packets_received_;
  bytes_received_ += static_cast<std::uint64_t>(pkt.bytes);

  if (observer_) observer_(pkt, now);

  Ack ack;
  ack.flow = id_;
  ack.seq = pkt.seq;
  ack.acked_bytes = pkt.bytes;
  ack.data_sent_time = pkt.sent_time;
  ack.data_recv_time = now;
  ack.delivered_at_send = pkt.delivered_at_send;
  ack.delivered_time_at_send = pkt.delivered_time_at_send;
  if (feedback_) feedback_(pkt, now, ack);
  ack_out_(std::move(ack));
}

}  // namespace pbecc::net
