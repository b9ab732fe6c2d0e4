// Message Fusion (paper Fig 10a): aligns the decoded control messages from
// multiple per-cell decoders and hands the congestion control module one
// consolidated view per decode instant.
//
// With LTE-only carrier sets every cell ticks at 1 ms and fusion degenerates
// to the classic per-subframe alignment. Mixed LTE+NR sets run heterogeneous
// slot clocks (an NR cell at 120 kHz reports eight slots per LTE subframe),
// so pending work is keyed on the tick's start *time* in microseconds: a
// cell is "due" at time t iff t is a multiple of its tick, and an emission
// at t carries exactly the due cells. Decoders may report cells in any
// order within one instant; fusion emits an instant once every due cell has
// reported it (or, if a decoder misses a tick entirely, when a later
// instant completes).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "phy/cell_config.h"
#include "phy/dci.h"
#include "util/time.h"

namespace pbecc::decoder {

struct CellMessages {
  phy::CellId cell = 0;
  // The cell-local tick index this list was decoded at (time / tick).
  std::int64_t sf_index = 0;
  std::vector<phy::Dci> messages;
};

struct FusedSubframe {
  // Start instant of the fused tick (µs). For LTE-only sets this is
  // sf_index * kSubframe of the classic per-subframe emission.
  util::Time time = 0;
  std::vector<CellMessages> cells;  // one entry per cell due at `time`
};

class MessageFusion {
 public:
  using Output = std::function<void(const FusedSubframe&)>;

  explicit MessageFusion(Output out) : out_(std::move(out)) {}

  void register_cell(phy::CellId cell, util::Duration tick = util::kSubframe) {
    expected_.push_back({cell, tick});
  }
  // Carrier reconfiguration changed a cell's numerology; unknown cells are
  // ignored.
  void set_cell_tick(phy::CellId cell, util::Duration tick);

  // Feed one cell's decode result for one tick of its own clock.
  void on_decoded(phy::CellId cell, std::int64_t sf_index,
                  std::vector<phy::Dci> messages);

 private:
  struct Expected {
    phy::CellId cell = 0;
    util::Duration tick = util::kSubframe;
  };

  void flush_through(util::Time t);

  Output out_;
  std::vector<Expected> expected_;
  // tick start time -> per-cell messages collected so far.
  std::map<util::Time, std::map<phy::CellId, std::vector<phy::Dci>>> pending_;
};

}  // namespace pbecc::decoder
