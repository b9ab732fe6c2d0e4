#include "mac/reordering_buffer.h"

#include "check/check.h"
#include "obs/metrics.h"

namespace pbecc::mac {

void ReorderingBuffer::on_tb_decoded(util::Time now, TransportBlock tb) {
  if (tb.tb_seq < next_expected_) return;       // stale duplicate
  auto it = buffer_.find(tb.tb_seq);
  if (it != buffer_.end()) {
    // Duplicate decode of a sequence we already hold data for: first copy
    // wins. But a bare abandoned tombstone can race a late successful
    // retransmission — the abandon notification was issued (e.g. at
    // handover) while the final retransmission was still in flight and
    // then decoded. The data exists; rescue it instead of recording a
    // loss.
    if (!it->second.abandoned || !it->second.packets.empty()) return;
    it->second.packets = std::move(tb.completed_packets);
    it->second.abandoned = false;
    drain();
    check_order();
    return;
  }
  Entry e;
  e.since = now;
  e.packets = std::move(tb.completed_packets);
  buffer_.emplace(tb.tb_seq, std::move(e));
  drain();
  check_order();
}

void ReorderingBuffer::on_tb_abandoned(util::Time now, std::uint64_t tb_seq) {
  if (tb_seq < next_expected_) return;
  auto [it, inserted] = buffer_.try_emplace(tb_seq);
  if (inserted) it->second.since = now;
  // A spurious abandon arriving after a successful decode must not discard
  // the decoded data: mark the entry, but drain() delivers any packets it
  // holds regardless of the flag.
  it->second.abandoned = true;
  drain();
  check_order();
}

void ReorderingBuffer::expire(util::Time now) {
  // Only a head-of-line gap can be expired: the oldest buffered TB has
  // waited `timeout` for a sequence number that never arrived.
  while (!buffer_.empty() && buffer_.begin()->first != next_expected_ &&
         now - buffer_.begin()->second.since >= cfg_.timeout) {
    next_expected_ = buffer_.begin()->first;
    ++expired_skips_;
    static obs::Counter& skips = obs::counter("mac.reorder_expired_skips");
    skips.inc();
    drain();
  }
  check_order();
}

ReorderingBuffer::Snapshot ReorderingBuffer::snapshot() const {
  Snapshot snap;
  snap.next_expected = next_expected_;
  snap.expired_skips = expired_skips_;
  snap.entries.reserve(buffer_.size());
  for (const auto& [seq, e] : buffer_) {
    snap.entries.push_back(SnapshotEntry{seq, e.abandoned, e.since, e.packets});
  }
  return snap;
}

void ReorderingBuffer::restore(Snapshot snap) {
  buffer_.clear();
  next_expected_ = snap.next_expected;
  expired_skips_ = snap.expired_skips;
  for (auto& se : snap.entries) {
    Entry e;
    e.abandoned = se.abandoned;
    e.since = se.since;
    e.packets = std::move(se.packets);
    buffer_.emplace(se.tb_seq, std::move(e));
  }
  // A consistent snapshot never holds a deliverable head, but drain anyway
  // so a hand-built snapshot cannot wedge the cursor.
  drain();
  check_order();
}

void ReorderingBuffer::drain() {
  auto it = buffer_.begin();
  while (it != buffer_.end() && it->first == next_expected_) {
    for (auto& pkt : it->second.packets) deliver_(std::move(pkt));
    it = buffer_.erase(it);
    ++next_expected_;
  }
}

void ReorderingBuffer::check_order() const {
  // After every public operation the head of the buffer is strictly ahead
  // of the delivery cursor — an entry at/behind next_expected_ means a
  // drain was missed and delivery has wedged.
  PBECC_INVARIANT(buffer_.empty() || buffer_.begin()->first > next_expected_,
                  "reorder_head_ahead_of_cursor");
  if constexpr (check::kDeep) {
    bool monotone = true;
    std::uint64_t prev = next_expected_;
    for (const auto& [seq, e] : buffer_) {
      monotone = monotone && seq > prev;
      prev = seq;
    }
    PBECC_DEEP_INVARIANT(monotone, "reorder_buffer_strictly_sorted");
  }
}

}  // namespace pbecc::mac
