#include "sim/soak.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check/check.h"
#include "mac/base_station.h"
#include "net/event_loop.h"
#include "pbe/measurement_pipeline.h"
#include "phy/mcs.h"
#include "phy/pdcch.h"
#include "tel/sampler.h"
#include "util/rng.h"
#include "util/windowed_filter.h"

namespace pbecc::sim {

namespace {

// Background-user session arrival probability per cell, and departure
// probability per active background user, per subframe.
constexpr double kArrivalPerSf = 0.02;
constexpr double kDeparturePerSf = 0.003;
constexpr std::int64_t kCheckPeriodSf = 1'000;  // bound + drift checks

void note_failure(SoakReport& rep, std::string what) {
  if (rep.failures.size() < 20) rep.failures.push_back(std::move(what));
}

// Brute-force mirror of WindowedMean fed the identical sample stream: the
// oracle the drift lane compares against. Same expiry semantics, but the
// mean is recomputed from scratch on every read.
struct ExactMean {
  util::Duration window;
  std::deque<std::pair<util::Time, double>> samples;

  explicit ExactMean(util::Duration w) : window(w) {}

  void update(util::Time now, double v) {
    samples.emplace_back(now, v);
    expire(now);
  }
  void expire(util::Time now) {
    while (!samples.empty() && samples.front().first < now - window) {
      samples.pop_front();
    }
  }
  bool mean(util::Time now, double& out) {
    expire(now);
    if (samples.empty()) return false;
    double sum = 0.0;
    for (const auto& [t, v] : samples) sum += v;
    out = sum / static_cast<double>(samples.size());
    return true;
  }
};

void finish_check_totals(SoakReport& rep) {
  rep.invariant_violations = check::violations();
  rep.violation_digest = check::describe_violations();
}

}  // namespace

std::string SoakReport::to_json() const {
  std::string j = "{";
  auto add_u64 = [&](const char* k, std::uint64_t v) {
    j += std::string("\"") + k + "\": " + std::to_string(v) + ", ";
  };
  add_u64("subframes", static_cast<std::uint64_t>(subframes));
  add_u64("invariant_violations", invariant_violations);
  add_u64("failures", failures.size());
  add_u64("max_estimator_cells", max_estimator_cells);
  add_u64("max_tracker_users", max_tracker_users);
  add_u64("max_tracker_history", max_tracker_history);
  add_u64("max_ues", max_ues);
  add_u64("max_ue_cells", max_ue_cells);
  add_u64("decode_attempts", decode_attempts);
  add_u64("churn_events", churn_events);
  add_u64("handovers", handovers);
  add_u64("reconfigs", reconfigs);
  add_u64("delivered_packets", delivered_packets);
  char drift[64];
  std::snprintf(drift, sizeof(drift), "%.3e", max_mean_drift);
  j += std::string("\"max_mean_drift\": ") + drift + ", ";
  j += std::string("\"ok\": ") + (ok() ? "true" : "false") + "}";
  return j;
}

SoakReport run_pipeline_soak(const PipelineSoakConfig& cfg) {
  check::reset();
  SoakReport rep;
  rep.subframes = cfg.subframes;
  util::Rng rng(cfg.seed);

  std::vector<phy::CellConfig> cells;
  for (int i = 0; i < cfg.n_cells; ++i) {
    phy::CellConfig c;
    c.id = static_cast<phy::CellId>(i + 1);
    c.bandwidth_mhz = (i % 2 == 0) ? 10.0 : 20.0;
    cells.push_back(c);
  }
  const phy::Rnti own_rnti = 0x100;
  const double hint_rw = phy::Mcs{10, 1}.bits_per_prb();

  pbe::PbeClientConfig pcfg;
  pcfg.rnti = own_rnti;
  pcfg.cells = cells;
  pcfg.seed = cfg.seed + 1;
  // Light monitor reception noise; a fixed own-CSI hint.
  pbe::MeasurementPipeline pipeline(pcfg, [hint_rw](phy::CellId) {
    return pbe::CellInputs{0.002, hint_rw};
  });
  const decoder::Monitor& monitor = pipeline.monitor();
  const pbe::CapacityEstimator& estimator = pipeline.estimator();
  if (cfg.telemetry != nullptr) {
    auto& rec = cfg.telemetry->recorder();
    rec.set_meta("source", "pipeline_soak");
    rec.set_meta("seed", std::to_string(cfg.seed));
    rec.set_meta("interval_us", std::to_string(cfg.telemetry->interval()));
    cfg.telemetry->pipeline().attach(&monitor, &estimator);
  }

  // Background users per cell; RNTIs cycle through a per-cell free list so
  // a departing user's identifier is promptly reused by a new session.
  struct BgUser {
    phy::Rnti rnti;
    int prbs;
  };
  std::vector<std::vector<BgUser>> active(cells.size());
  std::vector<std::vector<phy::Rnti>> free_rntis(cells.size());
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    for (int k = 0; k < kPipelineSoakRntiPool; ++k) {
      free_rntis[ci].push_back(
          static_cast<phy::Rnti>(0x200 + 0x100 * ci + k));
    }
  }

  // Serving set: the contiguous (mod n) run of cells currently granting
  // the own RNTI. Rotated slowly in normal operation, rapidly in storms.
  std::size_t serving_offset = 0;
  std::size_t serving_n = cells.size();

  // WindowedMean drift lane: the filter under test and its exact mirror
  // see the same stream — realistic PRB/rate magnitudes, plus gap phases
  // that drain the window and magnitude switches into a tiny-value regime
  // (the pattern that exposes residual incremental-sum error).
  util::WindowedMean lane(40 * util::kMillisecond);
  ExactMean lane_exact(40 * util::kMillisecond);

  std::int64_t last_reconfig_sf = -1;
  std::vector<phy::PdcchSubframe> batch;

  for (std::int64_t sf = 1; sf <= cfg.subframes; ++sf) {
    const util::Time now = util::subframe_start(sf);

    // --- User churn with RNTI reuse.
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      if (!free_rntis[ci].empty() && rng.bernoulli(kArrivalPerSf)) {
        active[ci].push_back(
            {free_rntis[ci].back(),
             static_cast<int>(2 + rng.uniform_int(0, 10))});
        free_rntis[ci].pop_back();
        ++rep.churn_events;
      }
      for (std::size_t u = active[ci].size(); u-- > 0;) {
        if (rng.bernoulli(kDeparturePerSf)) {
          free_rntis[ci].push_back(active[ci][u].rnti);
          active[ci].erase(active[ci].begin() +
                           static_cast<std::ptrdiff_t>(u));
          ++rep.churn_events;
        }
      }
    }

    // --- Serving-set rotation; storms rotate every 50 subframes.
    const bool storm =
        cfg.storm_period_sf > 0 && (sf % cfg.storm_period_sf) < cfg.storm_len_sf;
    if ((storm && sf % 50 == 0) ||
        (!storm && cfg.rotate_period_sf > 0 && sf % cfg.rotate_period_sf == 0)) {
      serving_offset = (serving_offset + 1) % cells.size();
      serving_n = 1 + static_cast<std::size_t>(
                          (sf / 997) % static_cast<std::int64_t>(cells.size()));
      ++rep.handovers;
    }

    // --- Carrier reconfiguration: toggle one cell's bandwidth and tell
    // the monitor, exactly as a modem learns a new system bandwidth.
    if (cfg.reconfig_period_sf > 0 && sf % cfg.reconfig_period_sf == 0) {
      auto& c = cells[static_cast<std::size_t>(
          (sf / cfg.reconfig_period_sf) % static_cast<std::int64_t>(cells.size()))];
      c.bandwidth_mhz = c.bandwidth_mhz == 10.0 ? 20.0 : 10.0;
      pipeline.reconfigure_cell(c);
      ++rep.reconfigs;
      last_reconfig_sf = sf;
    }

    // --- RTprop window jitter (the PbeSender path).
    if (cfg.window_jitter_period_sf > 0 &&
        sf % cfg.window_jitter_period_sf == 0) {
      const auto w = util::from_millis(static_cast<double>(
          20 + (sf / cfg.window_jitter_period_sf * 7) % 180));
      pipeline.set_window(now, w);
    }

    // --- Build every cell's control region and feed the batch.
    batch.clear();
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      const auto& cell = cells[ci];
      phy::PdcchBuilder builder(cell, sf);
      int cursor = 0;
      const int total = cell.n_prbs();

      const std::size_t rel =
          (ci + cells.size() - serving_offset) % cells.size();
      if (rel < serving_n) {
        phy::Dci dci;
        dci.rnti = own_rnti;
        dci.format = phy::DciFormat::kFormat1;
        dci.prb_start = 0;
        dci.n_prbs = static_cast<std::uint16_t>(2 + sf % 9);
        dci.mcs = phy::Mcs{10, 1};
        dci.harq_id = static_cast<std::uint8_t>(sf % 8);
        if (builder.add_escalating(dci, 2)) cursor += dci.n_prbs;
      }
      for (const auto& u : active[ci]) {
        if (!rng.bernoulli(0.7)) continue;  // not scheduled this subframe
        const int p = std::min(u.prbs, total - cursor);
        if (p <= 0) break;
        phy::Dci dci;
        dci.rnti = u.rnti;
        dci.format = phy::DciFormat::kFormat1A;
        dci.prb_start = static_cast<std::uint16_t>(cursor);
        dci.n_prbs = static_cast<std::uint16_t>(p);
        dci.mcs = phy::Mcs{8, 1};
        dci.harq_id = static_cast<std::uint8_t>(sf % 8);
        if (builder.add_escalating(dci, 2)) cursor += p;
      }
      batch.push_back(std::move(builder).build());
    }
    pipeline.on_pdcch_batch(batch);
    if (cfg.telemetry != nullptr) {
      cfg.telemetry->pipeline().on_batch_end(sf);
      // check.violations rides the same cadence the pipeline half uses.
      if (sf % std::max<std::int64_t>(
                   cfg.telemetry->interval() / util::kSubframe, 1) == 0) {
        cfg.telemetry->recorder().append_i64(
            "check.violations", "count", util::subframe_start(sf + 1),
            static_cast<std::int64_t>(check::violations()));
      }
    }

    // --- Drift lane. Three regimes, 100k subframes each: realistic large
    // positive rates; gappy low-rate traffic (drains the window, forcing
    // the restart path); tiny values after the gaps (any stale residue in
    // the incremental sum dwarfs the true mean here).
    const int regime = static_cast<int>((sf / 100'000) % 3);
    bool fed = true;
    double v = 0;
    switch (regime) {
      case 0: v = rng.uniform(1e5, 1e6); break;
      case 1:
        fed = sf % 200 < 50;
        v = rng.uniform(0.0, 10.0);
        break;
      default: v = rng.uniform(0.0, 1e-6); break;
    }
    if (fed) {
      lane.update(now, v);
      lane_exact.update(now, v);
    }

    // --- Periodic bound / freshness / drift checks.
    if (sf % kCheckPeriodSf == 0) {
      rep.max_estimator_cells =
          std::max(rep.max_estimator_cells, estimator.tracked_cells());
      if (estimator.tracked_cells() > cells.size()) {
        note_failure(rep, "estimator tracks " +
                              std::to_string(estimator.tracked_cells()) +
                              " cells (> " + std::to_string(cells.size()) +
                              ") at sf " + std::to_string(sf));
      }
      for (const auto& c : cells) {
        const auto& tracker = monitor.tracker(c.id);
        rep.max_tracker_users =
            std::max(rep.max_tracker_users, tracker.tracked_users());
        rep.max_tracker_history =
            std::max(rep.max_tracker_history, tracker.history_size());
        // Pool + own RNTI + transient CRC-aliased identities. Aliases show
        // up at a rate set by the control BER and persist for one tracker
        // window (at most 200 subframes under jitter), so the allowance
        // scales with the window; a genuine leak grows past any constant.
        const std::size_t user_bound =
            static_cast<std::size_t>(kPipelineSoakRntiPool) + 1 + 200;
        if (tracker.tracked_users() > user_bound) {
          note_failure(rep, "tracker users " +
                                std::to_string(tracker.tracked_users()) +
                                " exceeds bound at sf " + std::to_string(sf));
        }
        // Window is at most 200 ms; each subframe contributes at most one
        // observation per active identity.
        const std::size_t hist_bound = 200 * (user_bound + 1);
        if (tracker.history_size() > hist_bound) {
          note_failure(rep, "tracker history " +
                                std::to_string(tracker.history_size()) +
                                " exceeds bound at sf " + std::to_string(sf));
        }
        // Carrier-reconfig freshness: a few subframes after a reconfig the
        // estimator must be dividing the *new* Pcell among users.
        if (sf > 100 && (last_reconfig_sf < 0 || sf - last_reconfig_sf > 5)) {
          if (estimator.cell_prbs(c.id) != c.n_prbs()) {
            note_failure(rep,
                         "estimator cell_prbs stale for cell " +
                             std::to_string(c.id) + " at sf " +
                             std::to_string(sf) + " (" +
                             std::to_string(estimator.cell_prbs(c.id)) +
                             " != " + std::to_string(c.n_prbs()) + ")");
          }
        }
      }
      double exact = 0;
      if (lane_exact.mean(now, exact)) {
        const double inc = lane.get(now, 0.0);
        const double drift =
            std::abs(inc - exact) / std::max(std::abs(exact), 1.0);
        rep.max_mean_drift = std::max(rep.max_mean_drift, drift);
        if (drift > 1e-9) {
          note_failure(rep, "WindowedMean drift " + std::to_string(drift) +
                                " at sf " + std::to_string(sf));
        }
      }
    }
  }

  rep.decode_attempts = monitor.decode_attempts();
  finish_check_totals(rep);
  return rep;
}

SoakReport run_mac_soak(const MacSoakConfig& cfg) {
  check::reset();
  SoakReport rep;
  rep.subframes = cfg.subframes;
  util::Rng rng(cfg.seed);

  net::EventLoop loop;
  std::vector<phy::CellConfig> cells;
  for (int i = 0; i < cfg.n_cells; ++i) {
    phy::CellConfig c;
    c.id = static_cast<phy::CellId>(i + 1);
    c.bandwidth_mhz = 10.0;
    cells.push_back(c);
  }
  mac::BaseStationConfig bcfg;
  bcfg.seed = cfg.seed;
  mac::BaseStation bs(loop, cells, bcfg);

  // Per-UE packet sequence counters persist across remove/re-add so the
  // delivery-order check spans a UE id's whole lifetime.
  std::map<mac::UeId, std::uint64_t> next_seq;
  std::map<mac::UeId, std::uint64_t> last_delivered;

  auto add_one = [&](mac::UeId id, double rssi_dbm,
                     std::vector<phy::CellId> aggregated) {
    mac::UeConfig u;
    u.id = id;
    u.rnti = static_cast<phy::Rnti>(0x100 + id);
    u.aggregated_cells = std::move(aggregated);
    u.channel.trace = phy::MobilityTrace::stationary(rssi_dbm);
    u.channel.noise_floor_dbm = -106.0;
    u.channel.seed = cfg.seed * 77 + id;
    bs.add_ue(u, [&rep, &last_delivered, id](net::Packet p) {
      auto& last = last_delivered[id];
      if (last != 0 && p.seq <= last) {
        note_failure(rep, "out-of-order delivery ue=" + std::to_string(id) +
                              " seq=" + std::to_string(p.seq) +
                              " after=" + std::to_string(last));
      }
      last = p.seq;
      ++rep.delivered_packets;
    });
  };

  // Foreground UEs: carrier-aggregated, one on a weak channel so HARQ
  // retransmissions and abandons actually happen.
  std::vector<mac::UeId> fg;
  for (int i = 0; i < kMacSoakFgUes; ++i) {
    const mac::UeId id = static_cast<mac::UeId>(i + 1);
    fg.push_back(id);
    add_one(id, i == 0 ? -95.0 : -101.0,
            {cells[0].id, cells[1 % cells.size()].id});
  }

  // Background pool: ids recycled through add_ue/remove_ue. An id is only
  // re-added a safe margin after removal (in-flight decode callbacks land
  // one subframe after transmission).
  struct BgSlot {
    mac::UeId id;
    std::int64_t removed_sf;
  };
  std::vector<BgSlot> free_bg;
  std::vector<mac::UeId> active_bg;
  for (int i = 0; i < kMacSoakBgUePool; ++i) {
    free_bg.push_back({static_cast<mac::UeId>(100 + i), -100});
  }

  bs.start();
  for (std::int64_t sf = 1; sf <= cfg.subframes; ++sf) {
    loop.run_until(util::subframe_start(sf));

    // --- Traffic: keep the foreground backlogged, background trickling.
    for (mac::UeId id : fg) {
      for (int k = 0; k < 2; ++k) {
        net::Packet p;
        p.flow = static_cast<net::FlowId>(id);
        p.seq = ++next_seq[id];
        p.bytes = 1500;
        p.sent_time = loop.now();
        bs.enqueue(id, p);
      }
    }
    if (sf % 2 == 0) {
      for (mac::UeId id : active_bg) {
        net::Packet p;
        p.flow = static_cast<net::FlowId>(id);
        p.seq = ++next_seq[id];
        p.bytes = 1500;
        p.sent_time = loop.now();
        bs.enqueue(id, p);
      }
    }

    // --- Background churn through add_ue/remove_ue with id reuse.
    if (rng.bernoulli(cfg.churn_per_sf) && !free_bg.empty() &&
        sf - free_bg.front().removed_sf > 20) {
      const BgSlot slot = free_bg.front();
      free_bg.erase(free_bg.begin());
      const auto cell =
          cells[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(cells.size()) - 1))]
              .id;
      add_one(slot.id, -98.0, {cell});
      active_bg.push_back(slot.id);
      ++rep.churn_events;
    }
    if (rng.bernoulli(cfg.churn_per_sf) && !active_bg.empty()) {
      const mac::UeId id = active_bg.front();
      active_bg.erase(active_bg.begin());
      bs.remove_ue(id);
      last_delivered.erase(id);  // a reused id restarts its order lane
      free_bg.push_back({id, sf});
      ++rep.churn_events;
    }

    // --- Handover: slow rotation normally, rapid rotation in storms.
    const bool storm =
        cfg.storm_period_sf > 0 && (sf % cfg.storm_period_sf) < cfg.storm_len_sf;
    const std::int64_t ho_interval = storm ? 25 : 5000;
    if (sf % ho_interval == 0) {
      for (std::size_t i = 0; i < fg.size(); ++i) {
        const std::size_t base = static_cast<std::size_t>(
            (sf / ho_interval + static_cast<std::int64_t>(i)) %
            static_cast<std::int64_t>(cells.size()));
        bs.handover(fg[i], {cells[base].id,
                            cells[(base + 1) % cells.size()].id});
        ++rep.handovers;
      }
    }

    // --- Bound checks.
    if (sf % kCheckPeriodSf == 0) {
      rep.max_ues = std::max(rep.max_ues, bs.num_ues());
      const std::size_t ue_bound =
          static_cast<std::size_t>(kMacSoakFgUes + kMacSoakBgUePool);
      if (bs.num_ues() > ue_bound) {
        note_failure(rep, "num_ues " + std::to_string(bs.num_ues()) +
                              " exceeds bound at sf " + std::to_string(sf));
      }
      for (mac::UeId id : fg) {
        const std::size_t tracked = bs.ue_tracked_cells(id);
        rep.max_ue_cells = std::max(rep.max_ue_cells, tracked);
        if (tracked > 2) {
          note_failure(rep, "ue " + std::to_string(id) + " tracks " +
                                std::to_string(tracked) +
                                " cells (> 2) at sf " + std::to_string(sf));
        }
      }
    }
  }
  // Drain the last in-flight deliveries.
  loop.run_until(util::subframe_start(cfg.subframes + 2));

  finish_check_totals(rep);
  return rep;
}

}  // namespace pbecc::sim
