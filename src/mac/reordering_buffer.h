// In-order delivery buffer at the mobile (paper §3, Fig 3).
//
// Transport blocks carry a per-UE sequence number assigned at first
// transmission (across all aggregated cells). The mobile holds
// out-of-sequence TBs until the missing one is retransmitted and received,
// which is what converts one HARQ retransmission into an 8 ms delay for
// the erroneous block and 7..0 ms for the blocks behind it. A TB that
// exhausts its retransmissions is skipped (its packets are lost upward).
//
// Real RLC also runs a reordering timer: if the gap at the head of the
// buffer is never filled (the abandon notification itself can be lost in
// a handover or injected fault), the stuck sequence number is skipped
// after kReorderingTimeout so delivery never wedges permanently.
// Duplicate decodes of the same sequence (HARQ ACK lost -> spurious
// retransmission) keep the first copy.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "mac/types.h"
#include "util/time.h"

namespace pbecc::mac {

// Head-of-line gaps older than this are skipped. The worst legitimate
// HARQ chain is 3 retransmissions x 8 ms plus delivery, ~32 ms; 60 ms
// leaves margin without holding traffic hostage for long.
inline constexpr util::Duration kReorderingTimeout = 60 * util::kMillisecond;

class ReorderingBuffer {
 public:
  // Sink for packets released in order.
  using Deliver = std::function<void(net::Packet)>;

  explicit ReorderingBuffer(Deliver deliver) : deliver_(std::move(deliver)) {}

  // A TB decoded successfully at time `now`.
  void on_tb_decoded(util::Time now, TransportBlock tb);

  // TB `tb_seq` was abandoned by HARQ: skip it and release anything that
  // was waiting behind it.
  void on_tb_abandoned(util::Time now, std::uint64_t tb_seq);

  // Skip head-of-line gaps whose oldest waiting TB has exceeded the
  // timeout. Call periodically (the base station calls it each subframe).
  void expire(util::Time now);

  std::uint64_t next_expected() const { return next_expected_; }
  std::size_t buffered_blocks() const { return buffer_.size(); }
  std::uint64_t expired_skips() const { return expired_skips_; }

  // Value-type snapshot of the buffer for cross-shard UE migration
  // (DESIGN.md §15): the delivery cursor, the skip counter, and every
  // buffered entry — including abandoned tombstones still waiting for
  // their gap to resolve. Dropping this residue at a handover would
  // silently lose the packets queued behind a gap.
  struct SnapshotEntry {
    std::uint64_t tb_seq = 0;
    bool abandoned = false;
    util::Time since = 0;
    std::vector<net::Packet> packets;
  };
  struct Snapshot {
    std::uint64_t next_expected = 0;
    std::uint64_t expired_skips = 0;
    std::vector<SnapshotEntry> entries;  // ascending tb_seq
  };
  Snapshot snapshot() const;
  // Replace this buffer's state with `snap` (migration admit). `since`
  // stamps are preserved so the reordering timer keeps running across the
  // move instead of resetting.
  void restore(Snapshot snap);

 private:
  void drain();
  void check_order() const;

  Deliver deliver_;
  std::uint64_t next_expected_ = 0;
  std::uint64_t expired_skips_ = 0;
  // tb_seq -> completed packets (empty vector for abandoned TBs).
  struct Entry {
    bool abandoned = false;
    util::Time since = 0;  // when this entry started waiting
    std::vector<net::Packet> packets;
  };
  std::map<std::uint64_t, Entry> buffer_;
};

}  // namespace pbecc::mac
