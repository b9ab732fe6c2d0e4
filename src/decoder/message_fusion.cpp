#include "decoder/message_fusion.h"

#include "check/check.h"
#include "obs/obs.h"

namespace pbecc::decoder {

void MessageFusion::set_cell_tick(phy::CellId cell, util::Duration tick) {
  for (Expected& e : expected_) {
    if (e.cell == cell) e.tick = tick;
  }
}

void MessageFusion::on_decoded(phy::CellId cell, std::int64_t sf_index,
                               std::vector<phy::Dci> messages) {
  util::Duration tick = util::kSubframe;
  for (const Expected& e : expected_) {
    if (e.cell == cell) tick = e.tick;
  }
  const util::Time t = sf_index * tick;
  auto& slot = pending_[t];
  slot[cell] = std::move(messages);

  // Complete when every cell due at t (those whose tick divides t) has
  // reported; otherwise emit any strictly older, incomplete instants — a
  // decoder that skipped a tick must not stall the pipeline (capacity
  // estimates are time-critical).
  std::size_t due = 0;
  for (const Expected& e : expected_) {
    if (t % e.tick == 0) ++due;
  }
  if (slot.size() == due) {
    flush_through(t);
  } else {
    flush_through(t - 1);
  }
  // Every call flushes everything older than the current instant, so with
  // (near-)monotonic decoder feeds only the current instant — plus a
  // small out-of-order slack — may stay pending. Unbounded growth here
  // means the flush logic regressed and the pipeline is silently stalling.
  PBECC_INVARIANT(pending_.size() <= 4, "fusion_pending_bounded");
  if constexpr (check::kDeep) {
    bool known = true;
    for (const auto& [pt, cells] : pending_) {
      for (const auto& [c, msgs] : cells) {
        bool found = false;
        for (const Expected& e : expected_) found = found || e.cell == c;
        known = known && found;
      }
    }
    PBECC_DEEP_INVARIANT(known, "fusion_pending_cells_registered");
  }
}

void MessageFusion::flush_through(util::Time t) {
  auto it = pending_.begin();
  while (it != pending_.end() && it->first <= t) {
    FusedSubframe fused;
    fused.time = it->first;
    for (const Expected& e : expected_) {
      if (fused.time % e.tick != 0) continue;  // cell not due at this instant
      CellMessages cm;
      cm.cell = e.cell;
      cm.sf_index = fused.time / e.tick;
      if (auto found = it->second.find(e.cell); found != it->second.end()) {
        cm.messages = std::move(found->second);
      } else {
        // A decoder skipped this tick on cell `e.cell`; fusion papers over
        // the gap with an empty message list (the correction the paper's
        // Fig 10a pipeline applies). Surface it — gap rate is the health
        // signal for control-channel monitoring.
        static obs::Counter& gaps = obs::counter("decoder.fusion.gaps");
        gaps.inc();
        obs::emit(obs::EventKind::kFusionIncomplete, fused.time,
                  static_cast<std::uint16_t>(e.cell), 0, cm.sf_index);
      }
      fused.cells.push_back(std::move(cm));
    }
    out_(fused);
    it = pending_.erase(it);
  }
}

}  // namespace pbecc::decoder
