#include "mac/base_station.h"

#include <algorithm>
#include <stdexcept>

#include "check/check.h"
#include "obs/obs.h"
#include "phy/error_model.h"
#include "phy/transport_block.h"

namespace pbecc::mac {

BaseStation::BaseStation(net::EventLoop& loop,
                         std::vector<phy::CellConfig> cells,
                         BaseStationConfig cfg)
    : loop_(loop), cfg_(std::move(cfg)), cell_cfgs_(std::move(cells)),
      rng_(cfg_.seed) {
  if (cell_cfgs_.empty()) throw std::invalid_argument("base station needs >=1 cell");
  for (const auto& c : cell_cfgs_) {
    ControlTrafficConfig ctrl_cfg = cfg_.control_traffic;
    ctrl_cfg.seed = rng_.next_u64();
    cells_.push_back(CellState{c, make_scheduler(cfg_.scheduler),
                               ControlTrafficGenerator{ctrl_cfg}, 0, nullptr});
  }
}

HarqEntity BaseStation::make_harq(phy::CellId cell) const {
  for (const auto& cc : cell_cfgs_) {
    if (cc.id != cell) continue;
    if (cc.rat == phy::Rat::kNr && cc.mini_slot_preemption) {
      return HarqEntity{kMiniSlotRetxTicks};
    }
    break;
  }
  return HarqEntity{};
}

void BaseStation::add_ue(const UeConfig& cfg, DeliveryHandler deliver) {
  if (ues_.contains(cfg.id)) throw std::invalid_argument("duplicate UE id");
  if (cfg.aggregated_cells.empty()) {
    throw std::invalid_argument("UE needs at least one aggregated cell");
  }
  UeState st{
      .cfg = cfg,
      .queue = {},
      .queue_bytes = 0,
      .head_bits_sent = 0,
      .next_tb_seq = 0,
      .reorder = nullptr,
      .harq = {},
      .channels = {},
      .ch_now = {},
      .ca = CaManager{cfg.aggregated_cells, cfg.ca},
      .newest_secondary_prbs_this_sf = 0,
      .total_prbs_this_sf = 0,
      .prbs_this_sf_by_cell = {},
      .last_served = {},
      .explicit_rate_bps = 0,
  };
  delivery_[cfg.id] = std::move(deliver);
  const UeId id = cfg.id;
  st.reorder = std::make_unique<ReorderingBuffer>(
      [this, id](net::Packet pkt) { delivery_.at(id)(std::move(pkt)); },
      cfg_.reordering);
  for (phy::CellId c : cfg.aggregated_cells) {
    phy::ChannelConfig chc = cfg.channel;
    // Independent fading per carrier, same mobility trace.
    chc.seed = cfg.channel.seed * 1000003ULL + c;
    st.channels.emplace(c, phy::ChannelModel{chc});
    st.harq.emplace(c, make_harq(c));
  }
  ues_.emplace(id, std::move(st));
}

void BaseStation::enqueue(UeId ue, net::Packet pkt) {
  auto& st = ues_.at(ue);
  if (st.queue_bytes + pkt.bytes > st.cfg.queue_capacity_bytes) {
    static obs::Counter& drops = obs::counter("mac.queue_drops");
    drops.inc();
    obs::emit(obs::EventKind::kQueueDrop, loop_.now(), 0,
              static_cast<std::uint32_t>(ue), pkt.bytes);
    if (drop_handler_) drop_handler_(ue, pkt);
    return;  // per-user buffer overflow: droptail
  }
  pkt.bs_enqueue_time = loop_.now();
  st.queue_bytes += pkt.bytes;
  st.queue.push_back(std::move(pkt));
}

void BaseStation::start() {
  if (started_) return;
  started_ = true;
  loop_.schedule_at(util::subframe_start(sf_index_ + 1) , [this] { tick(); });
}

std::int64_t BaseStation::backlog_bits(const UeState& ue) const {
  return ue.queue_bytes * 8 - ue.head_bits_sent;
}

void BaseStation::tick() {
  PBECC_PROF_SCOPE("bs_tick");
  sf_index_ = util::subframe_index(loop_.now());

  // Sample every UE's channel on every aggregated cell once per subframe,
  // and run the RLC reordering timer.
  for (auto& [id, ue] : ues_) {
    ue.newest_secondary_prbs_this_sf = 0;
    ue.total_prbs_this_sf = 0;
    ue.prbs_this_sf_by_cell.clear();
    ue.reorder->expire(loop_.now());
    for (auto& [cell, model] : ue.channels) {
      ue.ch_now[cell] = model.sample(loop_.now());
    }
  }

  // Run every cell's scheduling ticks for this 1 ms master tick. LTE cells
  // tick once; an NR cell with 2^mu slots per subframe ticks 2^mu times.
  // Slot-major iteration (slot k across all cells, then slot k+1) keeps
  // the emitted control regions in time-ascending order, which downstream
  // fusion relies on to bound its pending set.
  int max_spsf = 1;
  for (const auto& cell : cells_) {
    max_spsf = std::max(max_spsf, cell.cfg.slots_per_subframe());
  }
  tick_pdcch_.clear();
  for (int k = 0; k < max_spsf; ++k) {
    for (auto& cell : cells_) {
      const int spsf = cell.cfg.slots_per_subframe();
      if (k >= spsf) continue;
      run_cell(cell, sf_index_ * spsf + k);
    }
  }
  if (!pdcch_batch_observers_.empty() && !tick_pdcch_.empty()) {
    for (const auto& obs : pdcch_batch_observers_) obs(tick_pdcch_);
  }
  update_explicit_rates();

  // Carrier aggregation updates (take effect next subframe).
  for (auto& [id, ue] : ues_) {
    int serving_capacity = 0;
    for (phy::CellId c : ue.ca.active_cells()) {
      for (const auto& cc : cell_cfgs_) {
        // Capacity per 1 ms master tick: an NR cell schedules its PRB pool
        // once per slot, i.e. slots_per_subframe() times per subframe.
        if (cc.id == c) serving_capacity += cc.n_prbs() * cc.slots_per_subframe();
      }
    }
    const std::size_t active_before = ue.ca.active_cells().size();
    ue.ca.on_subframe(loop_.now(), ue.queue_bytes,
                      ue.newest_secondary_prbs_this_sf, ue.total_prbs_this_sf,
                      serving_capacity);
    const std::size_t active_after = ue.ca.active_cells().size();
    if (active_after != active_before) {
      static obs::Counter& changes = obs::counter("mac.ca_changes");
      changes.inc();
      obs::emit(obs::EventKind::kCaChange, loop_.now(), 0,
                static_cast<std::uint32_t>(id),
                static_cast<std::int64_t>(active_after),
                static_cast<double>(active_before));
    }
  }

  loop_.schedule_at(util::subframe_start(sf_index_ + 1), [this] { tick(); });
}

void BaseStation::run_cell(CellState& cell, std::int64_t tick_index) {
  const int total_prbs = cell.cfg.n_prbs();
  int prbs_left = total_prbs;
  int prb_cursor = 0;
  phy::PdcchBuilder pdcch(cell.cfg, tick_index);
  AllocationRecord record;
  record.cell = cell.cfg.id;
  record.sf_index = tick_index;

  // --- 1. HARQ retransmissions due in this subframe.
  struct PendingTx {
    UeState* ue;
    std::uint8_t harq_id;
    bool is_retx;
    TransportBlock tb;  // only for new TBs; retx uses the stored block
  };
  std::vector<PendingTx> transmissions;

  for (auto& [id, ue] : ues_) {
    auto hit = ue.harq.find(cell.cfg.id);
    if (hit == ue.harq.end()) continue;
    for (std::uint8_t proc : hit->second.retx_due(tick_index)) {
      const TransportBlock& tb = hit->second.block(proc);
      if (tb.n_prbs > prbs_left) continue;  // postponed to next subframe
      phy::Dci dci;
      dci.rnti = ue.cfg.rnti;
      dci.format = tb.mcs.n_streams == 2 ? phy::DciFormat::kFormat2
                                         : phy::DciFormat::kFormat1;
      dci.prb_start = static_cast<std::uint16_t>(prb_cursor);
      dci.n_prbs = static_cast<std::uint16_t>(tb.n_prbs);
      dci.mcs = tb.mcs;
      dci.harq_id = proc;
      dci.new_data = false;  // NDI not toggled: retransmission
      const double sinr = ue.ch_now.at(cell.cfg.id).sinr_db;
      if (!pdcch.add_escalating(dci, phy::aggregation_level_for_sinr(sinr))) continue;
      prbs_left -= tb.n_prbs;
      prb_cursor += tb.n_prbs;
      record.retx_prbs += tb.n_prbs;
      ue.total_prbs_this_sf += tb.n_prbs;
      ue.prbs_this_sf_by_cell[cell.cfg.id] += tb.n_prbs;
      static obs::Counter& retx = obs::counter("mac.harq_retx");
      retx.inc();
      obs::emit(obs::EventKind::kHarqRetx, loop_.now(),
                static_cast<std::uint16_t>(cell.cfg.id),
                static_cast<std::uint32_t>(ue.cfg.id), proc, tb.n_prbs);
      transmissions.push_back({&ue, proc, true, {}});
    }
  }

  // --- 2. Control-plane grants. The generator's intensity is per tick, so
  // an NR cell carries proportionally more control traffic per 1 ms —
  // matching its proportionally larger scheduling opportunity count.
  for (const auto& grant : cell.control.tick(tick_index)) {
    if (grant.n_prbs > prbs_left) break;
    phy::Dci dci;
    dci.rnti = grant.rnti;
    dci.format = phy::DciFormat::kFormat1A;
    dci.prb_start = static_cast<std::uint16_t>(prb_cursor);
    dci.n_prbs = static_cast<std::uint16_t>(grant.n_prbs);
    dci.mcs = grant.mcs;
    dci.harq_id = 0;
    dci.new_data = true;
    if (!pdcch.add_escalating(dci, 4)) break;  // robust AL for idle-state users
    prbs_left -= grant.n_prbs;
    prb_cursor += grant.n_prbs;
    record.control_prbs += grant.n_prbs;
  }

  // --- 2b. Aggregated background sessions (synthetic load; O(sessions)
  // per subframe regardless of the notional user population). Each grant
  // appears on the PDCCH like any scheduled user, so monitors fold these
  // sessions into the sharer count N and the PRB occupancy.
  if (cell.aggregate) {
    int real_contenders = 0;
    for (const auto& [id, ue] : ues_) {
      const auto& active = ue.ca.active_cells();
      if (std::find(active.begin(), active.end(), cell.cfg.id) != active.end() &&
          backlog_bits(ue) > 0) {
        ++real_contenders;
      }
    }
    for (const auto& grant :
         cell.aggregate->tick(tick_index, prbs_left, real_contenders)) {
      phy::Dci dci;
      dci.rnti = grant.rnti;
      dci.format = grant.mcs.n_streams == 2 ? phy::DciFormat::kFormat2
                                            : phy::DciFormat::kFormat1;
      dci.prb_start = static_cast<std::uint16_t>(prb_cursor);
      dci.n_prbs = static_cast<std::uint16_t>(grant.n_prbs);
      dci.mcs = grant.mcs;
      dci.harq_id = 0;
      dci.new_data = true;
      if (!pdcch.add_escalating(dci,
                                phy::aggregation_level_for_sinr(grant.sinr_db))) {
        break;  // PDCCH exhausted: remaining sessions skip this subframe
      }
      prbs_left -= grant.n_prbs;
      prb_cursor += grant.n_prbs;
      record.aggregate_prbs += grant.n_prbs;
    }
  }

  // --- 3. New data: scheduler divides the remaining PRBs.
  std::vector<SchedRequest> requests;
  for (auto& [id, ue] : ues_) {
    const auto& active = ue.ca.active_cells();
    if (std::find(active.begin(), active.end(), cell.cfg.id) == active.end()) continue;
    if (backlog_bits(ue) <= 0) continue;
    if (!ue.harq.at(cell.cfg.id).free_process().has_value()) continue;
    const auto& ch = ue.ch_now.at(cell.cfg.id);
    phy::Mcs mcs{ch.cqi, ch.sinr_db >= 14.0 ? 2 : 1};
    requests.push_back(SchedRequest{id, (backlog_bits(ue) + 7) / 8,
                                    mcs.bits_per_prb(),
                                    ue.cfg.scheduling_weight});
  }
  const auto allocs = cell.scheduler->allocate(prbs_left, requests);

  for (const auto& a : allocs) {
    auto& ue = ues_.at(a.ue);
    const auto& ch = ue.ch_now.at(cell.cfg.id);
    phy::Mcs mcs{ch.cqi, ch.sinr_db >= 14.0 ? 2 : 1};
    const auto proc = ue.harq.at(cell.cfg.id).free_process();
    if (!proc) continue;

    phy::Dci dci;
    dci.rnti = ue.cfg.rnti;
    dci.format = mcs.n_streams == 2 ? phy::DciFormat::kFormat2
                                    : phy::DciFormat::kFormat1;
    dci.prb_start = static_cast<std::uint16_t>(prb_cursor);
    dci.n_prbs = static_cast<std::uint16_t>(a.n_prbs);
    dci.mcs = mcs;
    dci.harq_id = *proc;
    dci.new_data = true;
    if (!pdcch.add_escalating(dci, phy::aggregation_level_for_sinr(ch.sinr_db))) {
      continue;  // PDCCH exhausted: user skipped this subframe
    }

    TransportBlock tb;
    tb.tb_seq = ue.next_tb_seq++;
    tb.ue = a.ue;
    tb.cell = cell.cfg.id;
    tb.n_prbs = a.n_prbs;
    tb.mcs = mcs;
    const double capacity_bits =
        phy::transport_block_bits(a.n_prbs, mcs) * (1.0 - cfg_.protocol_overhead);
    const double payload_bits = take_bits(ue, capacity_bits, tb.completed_packets);
    // The TB error model sees the full on-air block, headers included.
    tb.bits = payload_bits / (1.0 - cfg_.protocol_overhead);

    prbs_left -= a.n_prbs;
    prb_cursor += a.n_prbs;
    record.data_allocs.push_back(a);
    ue.total_prbs_this_sf += a.n_prbs;
    ue.prbs_this_sf_by_cell[cell.cfg.id] += a.n_prbs;

    // Track use of the newest secondary for deactivation decisions.
    const auto& active = ue.ca.active_cells();
    if (active.size() > 1 && active.back() == cell.cfg.id) {
      ue.newest_secondary_prbs_this_sf += a.n_prbs;
    }
    ue.last_served[cell.cfg.id] = loop_.now();

    transmissions.push_back({&ue, *proc, false, std::move(tb)});
  }

  record.idle_prbs = prbs_left;
  cell.last_idle_prbs = record.idle_prbs;

  // PRB ledger: every PRB of the carrier is accounted to exactly one of
  // data / control / retransmission / idle, and none is double-booked.
  {
    int data_prbs = 0;
    for (const auto& a : record.data_allocs) data_prbs += a.n_prbs;
    PBECC_INVARIANT(record.idle_prbs >= 0 && record.control_prbs >= 0 &&
                        record.retx_prbs >= 0 && record.aggregate_prbs >= 0,
                    "bs_prb_ledger_nonnegative");
    PBECC_INVARIANT(data_prbs + record.control_prbs + record.retx_prbs +
                            record.aggregate_prbs + record.idle_prbs ==
                        total_prbs,
                    "bs_prb_ledger_balanced");
  }

  {
    // Per-subframe PRB ledger: total = data + control + retx + idle.
    static obs::Counter& total = obs::counter("mac.prbs_total");
    static obs::Counter& idle = obs::counter("mac.prbs_idle");
    static obs::Counter& data = obs::counter("mac.prbs_data");
    static obs::Counter& ctrl = obs::counter("mac.prbs_control");
    static obs::Counter& retx = obs::counter("mac.prbs_retx");
    static obs::Counter& aggr = obs::counter("mac.prbs_aggregate");
    total.inc(total_prbs);
    idle.inc(record.idle_prbs);
    data.inc(total_prbs - record.idle_prbs - record.control_prbs -
             record.retx_prbs - record.aggregate_prbs);
    ctrl.inc(record.control_prbs);
    retx.inc(record.retx_prbs);
    aggr.inc(record.aggregate_prbs);
  }

  // --- 4. Emit the control region to monitors.
  if (!pdcch_observers_.empty() || !pdcch_batch_observers_.empty()) {
    phy::PdcchSubframe sf = std::move(pdcch).build();
    for (const auto& obs : pdcch_observers_) obs(sf);
    if (!pdcch_batch_observers_.empty()) tick_pdcch_.push_back(std::move(sf));
  }
  if (alloc_observer_) alloc_observer_(record);

  // --- 5. Air transmission: draw errors, deliver or schedule HARQ retx.
  for (auto& tx : transmissions) {
    if (tx.is_retx) {
      transmit_tb(cell, *tx.ue, tx.harq_id, std::nullopt, tick_index);
    } else {
      transmit_tb(cell, *tx.ue, tx.harq_id, std::move(tx.tb), tick_index);
    }
  }
}

double BaseStation::take_bits(UeState& ue, double bits,
                              std::vector<net::Packet>& completed) {
  double taken = 0;
  while (bits - taken >= 1.0 && !ue.queue.empty()) {
    const double head_total = static_cast<double>(ue.queue.front().bytes) * 8.0;
    const double head_left = head_total - static_cast<double>(ue.head_bits_sent);
    if (head_left <= bits - taken) {
      taken += head_left;
      const std::int32_t head_bytes = ue.queue.front().bytes;
      completed.push_back(std::move(ue.queue.front()));
      ue.queue.pop_front();
      ue.queue_bytes -= head_bytes;
      ue.head_bits_sent = 0;
    } else {
      ue.head_bits_sent += static_cast<std::int64_t>(bits - taken);
      taken = bits;
    }
  }
  return taken;
}

void BaseStation::transmit_tb(CellState& cell, UeState& ue, std::uint8_t proc,
                              std::optional<TransportBlock> new_tb,
                              std::int64_t tick_index) {
  auto& harq = ue.harq.at(cell.cfg.id);
  if (new_tb.has_value()) {
    harq.start(proc, std::move(*new_tb), tick_index);
  }
  // else: retransmission — the failed block already lives in the entity.

  const TransportBlock& active_tb = harq.block(proc);
  ++total_tbs_sent_;
  static obs::Counter& sent = obs::counter("mac.tbs_sent");
  sent.inc();

  const double p = ue.ch_now.at(cell.cfg.id).data_ber;
  const double tber = phy::tb_error_rate(p, active_tb.bits);
  const bool error = rng_.bernoulli(tber);

  // Decode completes at the end of the transmission tick — one subframe
  // later on LTE, one slot later on NR (the shorter slot is exactly the
  // latency win scalable numerology buys).
  const util::Time decode_time = (tick_index + 1) * cell.cfg.tick();
  if (!error) {
    TransportBlock done = harq.complete(proc);
    loop_.schedule_at(decode_time, [this, ue_id = ue.cfg.id, done = std::move(done)]() mutable {
      // The UE may have been removed between transmission and decode.
      const auto it = ues_.find(ue_id);
      if (it != ues_.end()) it->second.reorder->on_tb_decoded(loop_.now(), std::move(done));
    });
    return;
  }

  ++total_tb_errors_;
  static obs::Counter& errors = obs::counter("mac.tb_errors");
  errors.inc();
  if (!harq.fail(proc, tick_index)) {
    // Retransmissions exhausted: abandon; packets inside are lost.
    ++total_tbs_abandoned_;
    TransportBlock dead = harq.take_abandoned(proc);
    static obs::Counter& abandoned = obs::counter("mac.tbs_abandoned");
    abandoned.inc();
    obs::emit(obs::EventKind::kTbAbandoned, loop_.now(),
              static_cast<std::uint16_t>(cell.cfg.id),
              static_cast<std::uint32_t>(ue.cfg.id),
              static_cast<std::int64_t>(dead.tb_seq));
    loop_.schedule_at(decode_time, [this, ue_id = ue.cfg.id, seq = dead.tb_seq] {
      const auto it = ues_.find(ue_id);
      if (it != ues_.end()) it->second.reorder->on_tb_abandoned(loop_.now(), seq);
    });
  }
}

std::map<phy::CellId, int> BaseStation::active_user_counts() const {
  constexpr util::Duration kActive = 200 * util::kMillisecond;
  const util::Time now = loop_.now();

  // Per cell: how many users would the fair scheduler be dividing among?
  std::map<phy::CellId, int> active_count;
  auto is_active = [&](const UeState& ue, phy::CellId cell) {
    if (ue.queue_bytes > 0) return true;
    const auto it = ue.last_served.find(cell);
    return it != ue.last_served.end() && now - it->second <= kActive;
  };
  for (const auto& [id, ue] : ues_) {
    for (phy::CellId c : ue.ca.active_cells()) {
      if (is_active(ue, c)) ++active_count[c];
    }
  }
  // Synthetic aggregate sessions share the cell exactly like real users.
  for (const auto& cell : cells_) {
    if (cell.aggregate && cell.aggregate->active_sessions() > 0) {
      active_count[cell.cfg.id] += cell.aggregate->active_sessions();
    }
  }
  return active_count;
}

void BaseStation::update_explicit_rates() {
  constexpr util::Duration kActive = 200 * util::kMillisecond;
  const util::Time now = loop_.now();
  const std::map<phy::CellId, int> active_count = active_user_counts();

  auto is_active = [&](const UeState& ue, phy::CellId cell) {
    if (ue.queue_bytes > 0) return true;
    const auto it = ue.last_served.find(cell);
    return it != ue.last_served.end() && now - it->second <= kActive;
  };

  for (auto& [id, ue] : ues_) {
    double bits_per_sf = 0;
    for (phy::CellId c : ue.ca.active_cells()) {
      if (!is_active(ue, c)) continue;
      const auto chit = ue.ch_now.find(c);
      if (chit == ue.ch_now.end()) continue;
      const phy::Mcs mcs{chit->second.cqi, chit->second.sinr_db >= 14.0 ? 2 : 1};
      int prbs = 0;
      for (const auto& cc : cell_cfgs_) {
        // PRB opportunities per 1 ms: the pool times the slot count (1 for
        // LTE, so the pre-NR arithmetic is bit-identical).
        if (cc.id == c) prbs = cc.n_prbs() * cc.slots_per_subframe();
      }
      const auto nit = active_count.find(c);
      const int n = std::max(nit == active_count.end() ? 0 : nit->second, 1);
      bits_per_sf += (static_cast<double>(prbs) / n) * mcs.bits_per_prb() *
                     (1.0 - cfg_.protocol_overhead);
    }
    const double rate = bits_per_sf * 1000.0;  // bits per second
    constexpr double alpha = 0.05;
    ue.explicit_rate_bps += alpha * (rate - ue.explicit_rate_bps);
  }
}

util::RateBps BaseStation::explicit_rate_bps(UeId ue) const {
  return ues_.at(ue).explicit_rate_bps;
}

std::vector<CellGroundTruth> BaseStation::ground_truth(UeId ue_id) const {
  const UeState& ue = ues_.at(ue_id);
  const std::map<phy::CellId, int> active_count = active_user_counts();
  std::vector<CellGroundTruth> out;
  for (phy::CellId c : ue.ca.active_cells()) {
    const auto chit = ue.ch_now.find(c);
    if (chit == ue.ch_now.end()) continue;  // no channel sample yet
    CellGroundTruth gt;
    gt.cell = c;
    int spsf = 1;
    for (const auto& cc : cell_cfgs_) {
      if (cc.id == c) {
        gt.cell_prbs = cc.n_prbs();
        spsf = cc.slots_per_subframe();
      }
    }
    const auto nit = active_count.find(c);
    gt.active_users = std::max(nit == active_count.end() ? 0 : nit->second, 1);
    for (const auto& cs : cells_) {
      if (cs.cfg.id == c) gt.idle_prbs = cs.last_idle_prbs;
    }
    const auto pit = ue.prbs_this_sf_by_cell.find(c);
    gt.own_prbs = pit == ue.prbs_this_sf_by_cell.end() ? 0 : pit->second;
    const phy::Mcs mcs{chit->second.cqi, chit->second.sinr_db >= 14.0 ? 2 : 1};
    gt.bits_per_prb = mcs.bits_per_prb();
    // Bits per 1 ms subframe: own_prbs already accumulates across all of
    // the cell's slots within the master tick; the pool and the (per-slot)
    // idle count scale by the slot count. spsf == 1 for LTE keeps the
    // pre-NR arithmetic bit-identical (integer multiply by 1).
    gt.fair_bits_sf = gt.bits_per_prb *
                      static_cast<double>(spsf * gt.cell_prbs) /
                      static_cast<double>(gt.active_users);
    gt.avail_bits_sf =
        gt.bits_per_prb *
        (static_cast<double>(gt.own_prbs) +
         static_cast<double>(spsf * gt.idle_prbs) /
             static_cast<double>(gt.active_users));
    out.push_back(gt);
  }
  return out;
}

void BaseStation::handover(UeId ue_id, const std::vector<phy::CellId>& new_cells) {
  if (new_cells.empty()) throw std::invalid_argument("handover needs >=1 cell");
  for (phy::CellId c : new_cells) {
    bool known = false;
    for (const auto& cc : cell_cfgs_) known |= cc.id == c;
    if (!known) throw std::invalid_argument("handover to unknown cell");
  }
  auto& ue = ues_.at(ue_id);
  static obs::Counter& handovers = obs::counter("mac.handovers");
  handovers.inc();
  obs::emit(obs::EventKind::kHandover, loop_.now(),
            static_cast<std::uint16_t>(new_cells.front()),
            static_cast<std::uint32_t>(ue_id),
            static_cast<std::int64_t>(new_cells.size()));

  // Abandon in-flight HARQ blocks on the old serving cells (no forwarding).
  for (auto& [cell, harq] : ue.harq) {
    for (TransportBlock& dead : harq.abandon_all()) {
      const auto seq = dead.tb_seq;
      loop_.schedule_at(loop_.now(), [this, ue_id, seq] {
        const auto it = ues_.find(ue_id);
        if (it != ues_.end()) it->second.reorder->on_tb_abandoned(loop_.now(), seq);
      });
      ++total_tbs_abandoned_;
      static obs::Counter& abandoned = obs::counter("mac.tbs_abandoned");
      abandoned.inc();
      obs::emit(obs::EventKind::kTbAbandoned, loop_.now(),
                static_cast<std::uint16_t>(cell),
                static_cast<std::uint32_t>(ue_id),
                static_cast<std::int64_t>(seq));
    }
  }

  // Evict per-cell state for the cells left behind: the HARQ blocks there
  // were just abandoned, and keeping entities/channel models for every
  // cell ever visited would grow without bound under handover churn (a
  // phone on a highway crosses hundreds of cells).
  const auto leaving = [&](const auto& kv) {
    return std::find(new_cells.begin(), new_cells.end(), kv.first) ==
           new_cells.end();
  };
  std::erase_if(ue.harq, leaving);
  std::erase_if(ue.channels, leaving);
  std::erase_if(ue.ch_now, leaving);
  std::erase_if(ue.last_served, leaving);

  // Install the new cell set: fresh HARQ entities and channel models for
  // cells the UE had not tracked before.
  ue.cfg.aggregated_cells = new_cells;
  for (phy::CellId c : new_cells) {
    if (!ue.channels.contains(c)) {
      phy::ChannelConfig chc = ue.cfg.channel;
      chc.seed = ue.cfg.channel.seed * 1000003ULL + c;
      ue.channels.emplace(c, phy::ChannelModel{chc});
    }
    if (!ue.harq.contains(c)) ue.harq.emplace(c, make_harq(c));
  }
  // Replacing the manager resets its timers for the new set, but the
  // Fig-15 "ever aggregated" statistic is history, not timer state — the
  // PR-4 eviction path silently zeroed it on every handover.
  const bool ever_aggregated = ue.ca.ever_aggregated();
  ue.ca = CaManager{new_cells, ue.cfg.ca};
  ue.ca.restore_history(ever_aggregated);
  // After eviction + install the tracked set is exactly the new cell set.
  PBECC_INVARIANT(ue.harq.size() == new_cells.size() &&
                      ue.channels.size() == new_cells.size(),
                  "bs_handover_tracks_exactly_new_cells");
}

UeMigration BaseStation::extract_ue(UeId ue_id) {
  auto& ue = ues_.at(ue_id);

  // Abandon in-flight HARQ blocks, applying the skip notifications into
  // the reordering buffer NOW — the schedule-at-now path intra-site
  // handover uses would fire after this UE is erased and silently no-op,
  // wedging the buffer behind a gap that never resolves (until the
  // reordering timer fires, 60 ms later). Any packets this releases go
  // out through the current delivery handler before the snapshot.
  for (auto& [cell, harq] : ue.harq) {
    for (TransportBlock& dead : harq.abandon_all()) {
      ue.reorder->on_tb_abandoned(loop_.now(), dead.tb_seq);
      ++total_tbs_abandoned_;
      static obs::Counter& abandoned = obs::counter("mac.tbs_abandoned");
      abandoned.inc();
      obs::emit(obs::EventKind::kTbAbandoned, loop_.now(),
                static_cast<std::uint16_t>(cell),
                static_cast<std::uint32_t>(ue_id),
                static_cast<std::int64_t>(dead.tb_seq));
    }
  }

  UeMigration m;
  m.cfg = ue.cfg;
  m.queue.assign(std::make_move_iterator(ue.queue.begin()),
                 std::make_move_iterator(ue.queue.end()));
  m.queue_bytes = ue.queue_bytes;
  m.head_bits_sent = ue.head_bits_sent;
  m.next_tb_seq = ue.next_tb_seq;
  m.reorder = ue.reorder->snapshot();
  m.explicit_rate_bps = ue.explicit_rate_bps;
  m.ever_aggregated = ue.ca.ever_aggregated();

  ues_.erase(ue_id);
  delivery_.erase(ue_id);
  return m;
}

void BaseStation::admit_ue(UeMigration m, const std::vector<phy::CellId>& new_cells,
                           DeliveryHandler deliver) {
  if (new_cells.empty()) throw std::invalid_argument("admit needs >=1 cell");
  for (phy::CellId c : new_cells) {
    bool known = false;
    for (const auto& cc : cell_cfgs_) known |= cc.id == c;
    if (!known) throw std::invalid_argument("admit to unknown cell");
  }
  if (ues_.contains(m.cfg.id)) throw std::invalid_argument("duplicate UE id");

  UeState st{
      .cfg = m.cfg,
      .queue = {},
      .queue_bytes = m.queue_bytes,
      .head_bits_sent = m.head_bits_sent,
      .next_tb_seq = m.next_tb_seq,
      .reorder = nullptr,
      .harq = {},
      .channels = {},
      .ch_now = {},
      .ca = CaManager{new_cells, m.cfg.ca},
      .newest_secondary_prbs_this_sf = 0,
      .total_prbs_this_sf = 0,
      .prbs_this_sf_by_cell = {},
      .last_served = {},
      .explicit_rate_bps = m.explicit_rate_bps,
  };
  st.cfg.aggregated_cells = new_cells;
  st.queue.assign(std::make_move_iterator(m.queue.begin()),
                  std::make_move_iterator(m.queue.end()));
  st.ca.restore_history(m.ever_aggregated);
  const UeId id = st.cfg.id;
  delivery_[id] = std::move(deliver);
  st.reorder = std::make_unique<ReorderingBuffer>(
      [this, id](net::Packet pkt) { delivery_.at(id)(std::move(pkt)); },
      cfg_.reordering);
  st.reorder->restore(std::move(m.reorder));
  for (phy::CellId c : new_cells) {
    // Same seed formula as add_ue/handover: the channel a UE sees on a
    // cell is a function of (UE channel seed, cell id) alone, so the
    // fading realization is independent of the path taken to get here.
    phy::ChannelConfig chc = st.cfg.channel;
    chc.seed = st.cfg.channel.seed * 1000003ULL + c;
    st.channels.emplace(c, phy::ChannelModel{chc});
    st.harq.emplace(c, make_harq(c));
  }
  ues_.emplace(id, std::move(st));
}

void BaseStation::set_aggregate_traffic(phy::CellId cell,
                                        AggregateTrafficConfig cfg) {
  for (auto& cs : cells_) {
    if (cs.cfg.id == cell) {
      cs.aggregate = std::make_unique<AggregateTraffic>(cell, cfg);
      return;
    }
  }
  throw std::invalid_argument("set_aggregate_traffic: unknown cell");
}

void BaseStation::remove_ue(UeId ue_id) {
  auto it = ues_.find(ue_id);
  if (it == ues_.end()) return;
  ues_.erase(it);
  delivery_.erase(ue_id);
}

std::size_t BaseStation::ue_tracked_cells(UeId ue) const {
  return ues_.at(ue).harq.size();
}

std::int64_t BaseStation::queue_bytes(UeId ue) const {
  return ues_.at(ue).queue_bytes;
}

const CaManager& BaseStation::ca(UeId ue) const { return ues_.at(ue).ca; }

phy::ChannelState BaseStation::channel_state(UeId ue, phy::CellId cell) const {
  const auto& st = ues_.at(ue);
  const auto it = st.ch_now.find(cell);
  // Before the first subframe tick no sample exists yet; return a neutral
  // default rather than forcing every caller to handle start-of-time.
  if (it == st.ch_now.end()) return phy::ChannelState{};
  return it->second;
}

}  // namespace pbecc::mac
