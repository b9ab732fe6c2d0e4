// The cellular downlink: a base station with one or more component
// carriers, per-UE queues, fair scheduling, HARQ, carrier aggregation and
// a synthetic PDCCH that monitors (the PBE-CC measurement module) can tap.
//
// Per subframe (1 ms), per cell:
//   1. HARQ retransmissions due this subframe reserve PRBs first.
//   2. Control-plane grants (paging / parameter updates) take a few PRBs.
//   3. The scheduler divides the rest among backlogged users max-min
//      fairly; each grant becomes a transport block + a DCI message.
//   4. The control region (PDCCH) is emitted to observers; transport
//      blocks fail with probability 1-(1-p)^L and either deliver one
//      subframe later (through the in-order reordering buffer) or
//      retransmit 8 subframes later, at most 3 times.
//
// NR component carriers run the same loop per *slot*: a cell with
// numerology mu schedules 2^mu times per 1 ms master tick (slot-major
// across cells, so mixed LTE+NR stations interleave in time order), its
// HARQ and decode latencies counted in slots of its own clock. Per-ms
// bookkeeping — channel sampling, CA decisions, explicit rates — is shared
// and stays on the 1 ms master tick.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "mac/aggregate_traffic.h"
#include "mac/carrier_aggregation.h"
#include "mac/control_traffic.h"
#include "mac/harq.h"
#include "mac/reordering_buffer.h"
#include "mac/scheduler.h"
#include "mac/types.h"
#include "net/event_loop.h"
#include "net/packet.h"
#include "phy/channel.h"
#include "phy/pdcch.h"
#include "util/rate.h"

namespace pbecc::mac {

struct UeConfig {
  UeId id = 0;
  phy::Rnti rnti = 0;
  // Primary first; CA activates the rest sequentially.
  std::vector<phy::CellId> aggregated_cells;
  phy::ChannelConfig channel{};
  // Scheduling weight under the cell's fairness policy (1.0 = equal share).
  double scheduling_weight = 1.0;
  // Per-user downlink buffer at the base station (the paper notes the BS
  // keeps separate buffers per user, which underpins RTT fairness §4.3).
  // ~1.5 MB is a few hundred ms at typical per-user rates, in line with
  // the bufferbloat levels the paper measures under CUBIC/Verus.
  std::int64_t queue_capacity_bytes = 1536 * 1024;
};

struct BaseStationConfig {
  std::string scheduler = "fair-share";
  ControlTrafficConfig control_traffic{};
  std::uint64_t seed = 42;
};

// Ground-truth per-tick allocation record (what the paper plots in
// Figs 2 and 21 from its decoder; we also expose it directly for tests).
// `sf_index` counts ticks on the cell's own clock — subframes for LTE,
// slots for NR.
struct AllocationRecord {
  phy::CellId cell = 0;
  std::int64_t sf_index = 0;
  std::vector<SchedAllocation> data_allocs;  // real UEs
  int control_prbs = 0;
  int retx_prbs = 0;
  int idle_prbs = 0;
  // PRBs granted to the synthetic aggregate-background sessions (0 unless
  // set_aggregate_traffic was configured for this cell).
  int aggregate_prbs = 0;
};

// Serializable cross-shard handover message (DESIGN.md §15): everything a
// UE must carry when it moves to a base station owned by another shard.
// HARQ blocks do NOT travel — they are abandoned at extraction (real
// inter-site handover without data forwarding), with the abandon
// notifications applied into the reordering buffer *before* the snapshot
// is taken, so nothing is dropped silently. Per-cell channel models are
// rebuilt deterministically at the target from (channel seed, cell id).
struct UeMigration {
  UeConfig cfg;  // aggregated_cells = serving set at extraction
  std::vector<net::Packet> queue;  // downlink queue, head first
  std::int64_t queue_bytes = 0;
  std::int64_t head_bits_sent = 0;
  std::uint64_t next_tb_seq = 0;
  ReorderingBuffer::Snapshot reorder;
  double explicit_rate_bps = 0;
  bool ever_aggregated = false;  // Fig-15 CA history
};

// Simulator-side ground truth for one UE on one of its serving cells: the
// exact quantities PBE-CC's estimator reconstructs from decoded DCI
// (Eqns 1-3), computed from scheduler state instead. Physical bits per
// subframe, no protocol-overhead factor — directly comparable to
// CapacityEstimator::fair_share_capacity / available_capacity, which apply
// overhead later in the RateTranslator. Telemetry samples this to score
// estimate accuracy against what the cell could actually schedule.
struct CellGroundTruth {
  phy::CellId cell = 0;
  int cell_prbs = 0;
  // Users the fair scheduler would currently divide the cell among
  // (backlogged or served within the activity window); >= 1.
  int active_users = 1;
  int idle_prbs = 0;  // last completed subframe
  int own_prbs = 0;   // this UE's PRBs on this cell, last completed subframe
  double bits_per_prb = 0;   // from the UE's current channel sample
  double fair_bits_sf = 0;   // bits_per_prb * cell_prbs / active_users
  double avail_bits_sf = 0;  // bits_per_prb * (own + idle / active_users)
};

class BaseStation {
 public:
  using DeliveryHandler = std::function<void(net::Packet)>;
  using PdcchBatchObserver =
      std::function<void(const std::vector<phy::PdcchSubframe>&)>;
  using AllocationObserver = std::function<void(const AllocationRecord&)>;
  using PacketDropHandler = std::function<void(UeId, const net::Packet&)>;

  BaseStation(net::EventLoop& loop, std::vector<phy::CellConfig> cells,
              BaseStationConfig cfg);

  // Register a user. `deliver` receives packets in order as the mobile's
  // RLC releases them.
  void add_ue(const UeConfig& cfg, DeliveryHandler deliver);

  // Downlink ingress (from the Internet path).
  void enqueue(UeId ue, net::Packet pkt);

  // Monitors (PBE-CC decoders) receive one call per 1 ms tick with every
  // cell's control regions, before noise, in slot-major cell order (an NR
  // cell contributes one region per slot). Each monitor applies its own
  // channel noise (Monitor::on_pdcch_batch).
  void add_pdcch_batch_observer(PdcchBatchObserver obs) {
    pdcch_batch_observers_.push_back(std::move(obs));
  }
  void set_allocation_observer(AllocationObserver obs) { alloc_observer_ = std::move(obs); }
  void set_drop_handler(PacketDropHandler h) { drop_handler_ = std::move(h); }

  // Begin ticking subframes on the event loop.
  void start();

  // Hand the UE over to a new aggregated-cell set (new primary first).
  // HARQ state is not transferred between sites: transport blocks still in
  // flight on the old cells are abandoned (their packets are lost upward,
  // exactly the transient a real inter-site handover without data
  // forwarding exhibits). The UE's queue and TB sequence continue. Per-cell
  // state for cells left behind is evicted, so a UE churning through many
  // cells does not accumulate HARQ entities and channel models forever.
  void handover(UeId ue, const std::vector<phy::CellId>& new_cells);

  // Deregister a user (it left the network). In-flight deliveries and
  // HARQ state are dropped; queued downlink packets are discarded. Safe
  // to call between subframes — transmissions already scheduled for the
  // removed UE are skipped when they fire.
  void remove_ue(UeId ue);

  // Detach the UE for migration to another base station (cross-shard
  // handover). In-flight HARQ blocks are abandoned with the notifications
  // applied synchronously into the reordering buffer — the scheduled-
  // callback path used by intra-site handover would find the UE already
  // removed and silently no-op, losing the skip. The returned snapshot
  // carries the queue, the reordering residue, the TB sequence cursor and
  // the CA history; feed it to another station's admit_ue.
  UeMigration extract_ue(UeId ue);

  // Re-register a migrated UE on this station with serving set
  // `new_cells` (new primary first). Channel models and HARQ entities are
  // rebuilt fresh per cell from the UE's channel seed — identical to what
  // an intra-site handover to a never-visited cell produces.
  void admit_ue(UeMigration m, const std::vector<phy::CellId>& new_cells,
                DeliveryHandler deliver);

  // Attach a synthetic aggregate-background load to one of this station's
  // cells (replacing any previous config for it). Call before start().
  void set_aggregate_traffic(phy::CellId cell, AggregateTrafficConfig cfg);

  // --- Introspection (used by tests, benches, and the UE "modem API") ---
  std::int64_t queue_bytes(UeId ue) const;
  const CaManager& ca(UeId ue) const;
  // The UE's own radio measurement for a cell (physically made by the
  // phone; lives here because the channel model is the radio link).
  phy::ChannelState channel_state(UeId ue, phy::CellId cell) const;

  // Explicit network feedback (the ABC / IETF-MTG design point of paper
  // §2): the base station's own estimate of the user's fair-share
  // transport rate across its active cells, smoothed. PBE-CC computes the
  // same quantity from decoded control messages at the endpoint; this
  // oracle exists for head-to-head ablations and as ground truth in tests.
  util::RateBps explicit_rate_bps(UeId ue) const;
  // Unsmoothed per-cell ground truth for a UE's active aggregated cells,
  // in cell-activation order (see CellGroundTruth above).
  std::vector<CellGroundTruth> ground_truth(UeId ue) const;
  const std::vector<phy::CellConfig>& cells() const { return cell_cfgs_; }
  std::int64_t current_subframe() const { return sf_index_; }
  std::uint64_t total_tbs_sent() const { return total_tbs_sent_; }
  std::uint64_t total_tb_errors() const { return total_tb_errors_; }
  std::uint64_t total_tbs_abandoned() const { return total_tbs_abandoned_; }
  // Registered users / per-UE tracked-cell count (soak bound checks: both
  // must stay flat under churn, not grow monotonically).
  std::size_t num_ues() const { return ues_.size(); }
  std::size_t ue_tracked_cells(UeId ue) const;

 private:
  struct UeState {
    UeConfig cfg;
    std::deque<net::Packet> queue;
    std::int64_t queue_bytes = 0;
    std::int64_t head_bits_sent = 0;  // bits of the head packet already sent
    std::uint64_t next_tb_seq = 0;
    std::unique_ptr<ReorderingBuffer> reorder;
    std::map<phy::CellId, HarqEntity> harq;
    std::map<phy::CellId, phy::ChannelModel> channels;
    std::map<phy::CellId, phy::ChannelState> ch_now;  // sampled this subframe
    CaManager ca;
    // PRBs the newest active secondary gave this UE this subframe.
    int newest_secondary_prbs_this_sf = 0;
    // PRBs across all serving cells this subframe (incl. retransmissions).
    int total_prbs_this_sf = 0;
    // Same, split per cell (ground-truth telemetry reads it one subframe
    // behind, after the tick completes).
    std::map<phy::CellId, int> prbs_this_sf_by_cell;
    // Last data grant per cell; drives the explicit-feedback activity set.
    std::map<phy::CellId, util::Time> last_served;
    // Smoothed ABC-style explicit rate (see explicit_rate_bps()).
    double explicit_rate_bps = 0;
  };

  struct CellState {
    phy::CellConfig cfg;
    std::unique_ptr<Scheduler> scheduler;
    ControlTrafficGenerator control;
    // Idle PRBs of the last completed subframe (ground-truth telemetry).
    int last_idle_prbs = 0;
    // Synthetic background load (null unless configured).
    std::unique_ptr<AggregateTraffic> aggregate;
  };

  // Scheduler-visible sharer count per cell (the N of Eqns 1-2).
  std::map<phy::CellId, int> active_user_counts() const;

  void tick();
  // Run one scheduling tick of one cell. `tick_index` counts ticks on the
  // cell's own clock (== sf_index_ for LTE; sf_index_ * spsf + slot for an
  // NR cell with spsf slots per subframe). HARQ, control traffic and the
  // PDCCH all advance per tick; per-ms bookkeeping (channel samples, CA,
  // explicit rates) stays in tick().
  void run_cell(CellState& cell, std::int64_t tick_index);
  void update_explicit_rates();
  // Pop up to `bits` from the UE queue into a TB; returns actual bits taken
  // and fills `completed`.
  double take_bits(UeState& ue, double bits, std::vector<net::Packet>& completed);
  // Sends the block on HARQ process `proc`; `new_tb` present for an initial
  // transmission, absent for a retransmission (block already stored).
  // `tick_index` is the cell-clock tick of the transmission; the block
  // decodes (or schedules its retransmission from) the following tick.
  void transmit_tb(CellState& cell, UeState& ue, std::uint8_t proc,
                   std::optional<TransportBlock> new_tb,
                   std::int64_t tick_index);
  // Fresh HARQ entity for a cell: the mini-slot retransmission delay for NR
  // cells configured with mini_slot_preemption, the classic 8-tick RTT
  // otherwise. Unknown cells get the default.
  HarqEntity make_harq(phy::CellId cell) const;
  std::int64_t backlog_bits(const UeState& ue) const;

  net::EventLoop& loop_;
  BaseStationConfig cfg_;
  std::vector<phy::CellConfig> cell_cfgs_;
  std::vector<CellState> cells_;
  std::map<UeId, UeState> ues_;
  std::map<UeId, DeliveryHandler> delivery_;
  std::vector<PdcchBatchObserver> pdcch_batch_observers_;
  // Control regions built during the current tick, one per cell, handed to
  // the batch observers once every cell has run.
  std::vector<phy::PdcchSubframe> tick_pdcch_;
  AllocationObserver alloc_observer_;
  PacketDropHandler drop_handler_;
  util::Rng rng_;
  std::int64_t sf_index_ = 0;
  bool started_ = false;

  std::uint64_t total_tbs_sent_ = 0;
  std::uint64_t total_tb_errors_ = 0;
  std::uint64_t total_tbs_abandoned_ = 0;
};

}  // namespace pbecc::mac
