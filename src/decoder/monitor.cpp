#include "decoder/monitor.h"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "check/check.h"
#include "obs/obs.h"

namespace pbecc::decoder {

namespace {
// Effective control-channel BER beyond which we model the decode as an
// outright failure (real decoders report CRC failure storms well before
// this). Only reachable through injected SINR collapses — the benign noise
// path stays below it.
constexpr double kDecodableBerLimit = 0.05;
}  // namespace

Monitor::Monitor(phy::Rnti own_rnti, std::vector<phy::CellConfig> cells,
                 Output out, ControlBerFn ber_fn,
                 UserTrackerConfig tracker_cfg, std::uint64_t seed,
                 const fault::FaultInjector* faults)
    : own_rnti_(own_rnti), out_(std::move(out)), ber_fn_(std::move(ber_fn)),
      faults_(faults), rng_(seed) {
  fusion_ = std::make_unique<MessageFusion>([this](const FusedSubframe& fused) {
    fused_subframes_->inc();
    std::vector<CellObservation> obs;
    obs.reserve(fused.cells.size());
    for (const auto& cm : fused.cells) {
      CellObservation o;
      o.cell = cm.cell;
      o.sf_index = cm.sf_index;
      o.tick = cell_tick_.at(cm.cell);
      o.cell_prbs = cell_prbs_.at(cm.cell);
      o.summary = trackers_.at(cm.cell)->on_subframe(cm.sf_index,
                                                     cm.messages, own_rnti_);
      const auto& g = gauges_.at(cm.cell);
      g.data_users->set(o.summary.data_users);
      g.raw_users->set(o.summary.raw_active_users);
      obs::emit(obs::EventKind::kSubframeObserved, fused.time,
                static_cast<std::uint16_t>(cm.cell), 0,
                o.summary.data_users, o.summary.own_prbs,
                o.summary.idle_prbs);
      obs.push_back(o);
    }
    out_(obs);
  });
  fused_subframes_ = &obs::counter("decoder.fused_subframes");
  for (const auto& c : cells) {
    decoders_.emplace(c.id, std::make_unique<BlindDecoder>(c));
    trackers_.emplace(c.id, std::make_unique<UserTracker>(c.n_prbs(),
                                                          tracker_cfg,
                                                          c.tick()));
    cell_prbs_[c.id] = c.n_prbs();
    cell_tick_[c.id] = c.tick();
    fusion_->register_cell(c.id, c.tick());
    const std::string cell_tag = ".cell" + std::to_string(c.id);
    gauges_[c.id] = CellGauges{
        &obs::gauge("decoder.data_users" + cell_tag),
        &obs::gauge("decoder.raw_users" + cell_tag)};
  }
}

void Monitor::note_fault_edge(bool& state, bool now_active,
                              fault::FaultType type, phy::CellId cell,
                              util::Time t, std::int64_t detail) {
  if (now_active && !state) {
    static obs::Counter& injections = obs::counter("fault.monitor_injections");
    injections.inc();
    obs::emit(obs::EventKind::kFaultInjected, t,
              static_cast<std::uint16_t>(cell),
              static_cast<std::uint32_t>(type), detail);
  }
  state = now_active;
}

void Monitor::on_pdcch_batch(const std::vector<phy::PdcchSubframe>& sfs) {
  PBECC_INVARIANT(!in_batch_, "monitor_batch_reentered");
  if (in_batch_) return;  // the outer call's entries are in use
  in_batch_ = true;
  const struct Leave {
    bool& in_batch;
    ~Leave() { in_batch = false; }
  } leave{in_batch_};

  // Phase 1 — preparation, in input order. Every fault decision,
  // accounting update and rng_ noise draw happens here, so the random
  // stream each cell sees depends only on the batch's cell order. Each
  // subframe that will be decoded is copied into the next reused entry of
  // pending_ and noised there.
  std::size_t n_pending = 0;
  for (const auto& sf : sfs) {
    auto dit = decoders_.find(sf.cell_id);
    if (dit == decoders_.end()) continue;

    // sf_index counts ticks on the cell's own clock (subframes for LTE,
    // slots for NR), so the start instant scales by the tick length.
    const util::Time now = sf.sf_index * sf.tick;
    if (first_pdcch_ < 0) first_pdcch_ = now;
    ++attempts_;
    // Keep the success log bounded even if decode_success_rate() is never
    // polled.
    while (!success_times_.empty() &&
           success_times_.front() < now - success_window_) {
      success_times_.pop_front();
    }

    double extra_ber = 0;
    if (faults_ != nullptr) {
      if (faults_->monitor_stalled(now)) {
        // Frozen subframe clock: the monitor processes nothing. Wall time
        // still advances, which is what decays the success rate.
        note_fault_edge(in_stall_, true, fault::FaultType::kMonitorStall, 0,
                        now, 0);
        ++failures_;
        continue;
      }
      note_fault_edge(in_stall_, false, fault::FaultType::kMonitorStall, 0,
                      now, 0);

      bool& bo = in_blackout_[sf.cell_id];
      if (faults_->dci_blackout(now, sf.cell_id)) {
        note_fault_edge(bo, true, fault::FaultType::kBlackout, sf.cell_id, now,
                        sf.sf_index);
        ++failures_;
        continue;
      }
      note_fault_edge(bo, false, fault::FaultType::kBlackout, sf.cell_id, now,
                      sf.sf_index);

      extra_ber = faults_->extra_control_ber(now, sf.cell_id);
      note_fault_edge(in_collapse_[sf.cell_id], extra_ber > 0,
                      fault::FaultType::kSinrCollapse, sf.cell_id, now,
                      sf.sf_index);
    }

    // The monitor receives the control region over its own radio channel.
    const double base_ber = ber_fn_ ? ber_fn_(sf.cell_id) : 0.0;
    if (faults_ != nullptr && base_ber + extra_ber > kDecodableBerLimit) {
      // Collapsed SINR: the control region is not decodable this subframe.
      ++failures_;
      continue;
    }
    if (n_pending == pending_.size()) pending_.emplace_back();
    Pending& p = pending_[n_pending++];
    p.noisy = sf;
    if (base_ber + extra_ber > 0) {
      phy::apply_bit_noise(p.noisy, base_ber + extra_ber, rng_);
    }
    p.dec = dit->second.get();
    p.cell = sf.cell_id;
    p.sf_index = sf.sf_index;
    p.now = now;
  }
  const auto batch = std::span(pending_).first(n_pending);

  // Phase 2 — decode, apply and fuse each entry in input order: stats,
  // counters, trace events, false-DCI injection and fusion callbacks. Each
  // decoder sees its cell's entries (one per slot of the tick for an NR
  // cell) in order; decode_compute reads only that decoder's memo and
  // scratch, and nothing fusion or the Output callback calls reaches a
  // decoder.
  for (Pending& p : batch) {
    auto messages = p.dec->decode(p.noisy);
    if (faults_ != nullptr) {
      const int n_false = faults_->false_dci_count(p.sf_index, p.cell);
      for (int k = 0; k < n_false; ++k) {
        messages.push_back(faults_->make_false_dci(
            p.sf_index, p.cell, cell_prbs_.at(p.cell), k));
      }
      if (n_false > 0) {
        static obs::Counter& false_dcis = obs::counter("fault.false_dcis");
        false_dcis.inc(static_cast<std::uint64_t>(n_false));
        obs::emit(obs::EventKind::kFaultInjected, p.now,
                  static_cast<std::uint16_t>(p.cell),
                  static_cast<std::uint32_t>(fault::FaultType::kFalseDci),
                  n_false);
      }
    }
    success_times_.push_back(p.now);
    fusion_->on_decoded(p.cell, p.sf_index, std::move(messages));
  }
}

std::uint64_t Monitor::total_candidates_tried() const {
  std::uint64_t total = 0;
  for (const auto& [id, dec] : decoders_) total += dec->stats().candidates_tried;
  return total;
}

std::uint64_t Monitor::total_lane_batches() const {
  std::uint64_t total = 0;
  for (const auto& [id, dec] : decoders_) total += dec->stats().lane_batches;
  return total;
}

std::uint64_t Monitor::total_early_aborts() const {
  std::uint64_t total = 0;
  for (const auto& [id, dec] : decoders_) total += dec->stats().early_aborts;
  return total;
}

double Monitor::decode_success_rate(util::Time now) const {
  if (first_pdcch_ < 0) return 1.0;
  const util::Time lo = std::max(first_pdcch_, now - success_window_);
  while (!success_times_.empty() && success_times_.front() < lo) {
    success_times_.pop_front();
  }
  // Each cell contributes one expected decode per tick of its own cadence
  // over the window span.
  double expected = 0;
  for (const auto& [id, tick] : cell_tick_) {
    expected += static_cast<double>(now - lo) / static_cast<double>(tick) + 1.0;
  }
  if (expected <= 0) return 1.0;
  return std::min(1.0, static_cast<double>(success_times_.size()) / expected);
}

void Monitor::set_tracker_window(util::Duration w) {
  for (auto& [id, t] : trackers_) t->set_window(w);
}

void Monitor::reconfigure_cell(const phy::CellConfig& cell) {
  auto dit = decoders_.find(cell.id);
  if (dit == decoders_.end()) return;
  dit->second->reconfigure(cell);
  trackers_.at(cell.id)->set_cell_prbs(cell.n_prbs());
  cell_prbs_[cell.id] = cell.n_prbs();
  cell_tick_[cell.id] = cell.tick();
  fusion_->set_cell_tick(cell.id, cell.tick());
}

}  // namespace pbecc::decoder
