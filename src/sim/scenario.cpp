#include "sim/scenario.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "cap/taps.h"
#include "check/check.h"
#include "nr/numerology.h"
#include "obs/obs.h"
#include "pbe/pbe_sender.h"
#include "sim/algorithms.h"
#include "tel/sampler.h"

namespace pbecc::sim {

namespace {
// Cross-domain messages are exchanged at subframe boundaries: the finest
// granularity at which the MAC layer acts, and the cadence the paper's
// own feedback loop runs at.
constexpr util::Duration kShardBarrier = util::kMillisecond;
// Mean RSSI of a background user; BackgroundSpec::rssi_sigma_db spreads it.
constexpr double kBackgroundRssiMeanDbm = -95.0;
}  // namespace

Scenario::Scenario(ScenarioConfig cfg) : cfg_(std::move(cfg)), rng_(cfg_.seed) {
  if (cfg_.cells.empty()) {
    throw std::invalid_argument("scenario needs at least one cell");
  }
  for (std::size_t i = 0; i < cfg_.cells.size(); ++i) {
    const CellSpec& spec = cfg_.cells[i];
    phy::CellConfig cc;
    cc.id = static_cast<phy::CellId>(i + 1);
    cc.bandwidth_mhz = spec.bandwidth_mhz;
    if (spec.nr) {
      cc.rat = phy::Rat::kNr;
      cc.scs = nr::scs_from_khz(spec.scs_khz);
      cc.coreset.rbs = spec.coreset_rbs;
      cc.coreset.symbols = spec.coreset_symbols;
      cc.mini_slot_preemption = spec.mini_slot;
      // NR PDCCH is polar-coded; convolutional_pdcch opts into the
      // (equivalently shaped) conv path for apples-to-apples ablations.
      cc.pdcch_coding = spec.convolutional_pdcch ? phy::PdcchCoding::kConvolutional
                                                 : phy::PdcchCoding::kPolar;
      nr::nr_prbs_for(cc.scs, cc.bandwidth_mhz);  // validate the pairing now
    } else {
      cc.pdcch_coding = spec.convolutional_pdcch
                            ? phy::PdcchCoding::kConvolutional
                            : phy::PdcchCoding::kRepetition;
    }
    cell_cfgs_.push_back(cc);
  }

  // Partition cells into shard domains by cluster id (ascending). The
  // partition is fixed by the scenario config — worker count never alters
  // it, which is the root of the determinism argument.
  std::vector<int> clusters;
  for (const CellSpec& c : cfg_.cells) clusters.push_back(c.cluster);
  std::sort(clusters.begin(), clusters.end());
  clusters.erase(std::unique(clusters.begin(), clusters.end()),
                 clusters.end());
  for (int c : clusters) {
    auto d = std::make_unique<Domain>();
    d->cluster = c;
    domains_.push_back(std::move(d));
  }
  cell_domain_.resize(cfg_.cells.size(), 0);
  for (std::size_t i = 0; i < cfg_.cells.size(); ++i) {
    const auto it = std::lower_bound(clusters.begin(), clusters.end(),
                                     cfg_.cells[i].cluster);
    const int d = static_cast<int>(it - clusters.begin());
    cell_domain_[i] = d;
    domains_[static_cast<std::size_t>(d)]->cell_idx.push_back(i);
    domains_[static_cast<std::size_t>(d)]->cells.push_back(cell_cfgs_[i]);
  }

  // One base station per domain; one seed draw per domain in domain order
  // (a single-cluster scenario draws exactly once, matching the pre-shard
  // RNG stream byte for byte).
  for (auto& dom : domains_) {
    mac::BaseStationConfig bs_cfg;
    bs_cfg.scheduler = cfg_.scheduler;
    bs_cfg.seed = rng_.next_u64();
    // Per-cell control-traffic intensity is folded into one generator
    // config; BaseStation forks seeds per cell. Use the domain's first
    // cell's figure for all (location profiles keep them equal).
    bs_cfg.control_traffic.users_per_subframe =
        cfg_.cells[dom->cell_idx.front()].control_users_per_subframe;
    dom->bs = std::make_unique<mac::BaseStation>(dom->loop, dom->cells, bs_cfg);
  }
  mailbox_.reset(domains_.size());

  if (cfg_.fault.active()) {
    faults_ = std::make_unique<fault::FaultInjector>(cfg_.fault, cfg_.fault_seed);
  }
}

phy::Rnti Scenario::rnti_for(mac::UeId ue) const {
  return static_cast<phy::Rnti>(0x100 + ue);
}

int Scenario::domain_of(const std::vector<std::size_t>& cells,
                        const char* what) const {
  if (cells.empty()) {
    throw std::invalid_argument(std::string(what) + ": empty cell set");
  }
  const int d = cell_domain_.at(cells.front());
  for (std::size_t idx : cells) {
    if (cell_domain_.at(idx) != d) {
      throw std::invalid_argument(std::string(what) +
                                  ": serving set spans cell clusters");
    }
  }
  return d;
}

mac::BaseStation::DeliveryHandler Scenario::make_delivery_handler(
    mac::UeId ue) {
  return [this, ue](net::Packet pkt) { route_delivery(ue, std::move(pkt)); };
}

void Scenario::route_delivery(mac::UeId ue, net::Packet pkt) {
  const auto rit = ue_receivers_.find(ue);
  if (rit == ue_receivers_.end()) return;  // background payload: discard
  const auto it = rit->second.find(pkt.flow);
  if (it == rit->second.end()) return;  // unknown flow: discard
  if (domains_.size() == 1) {
    it->second->on_packet(std::move(pkt));
    return;
  }
  const int cur = ue_records_.at(ue).domain;
  const int home = flow_domain_.at(pkt.flow);
  if (in_barrier_ || home == cur) {
    // Either the receiver lives where the UE does (one domain's own event
    // sequence), or we are in the serial barrier phase with every domain
    // clock aligned — direct delivery is safe and deterministic.
    it->second->on_packet(std::move(pkt));
    return;
  }
  ShardMsg m;
  m.kind = ShardMsg::Kind::kDeliver;
  m.ue = ue;
  m.pkt = std::move(pkt);
  mailbox_.post(static_cast<std::uint32_t>(cur),
                domains_[static_cast<std::size_t>(cur)]->loop.now(),
                std::move(m));
}

void Scenario::route_downlink(mac::UeId ue, net::Packet pkt, int home) {
  if (domains_.size() == 1) {
    domains_.front()->bs->enqueue(ue, std::move(pkt));
    return;
  }
  const int cur = ue_records_.at(ue).domain;
  if (cur == home) {
    domains_[static_cast<std::size_t>(cur)]->bs->enqueue(ue, std::move(pkt));
    return;
  }
  // The UE migrated away from the flow's home cluster: the packet crosses
  // the inter-site backhaul and lands at the next subframe barrier.
  ShardMsg m;
  m.kind = ShardMsg::Kind::kPacket;
  m.ue = ue;
  m.pkt = std::move(pkt);
  mailbox_.post(static_cast<std::uint32_t>(home),
                domains_[static_cast<std::size_t>(home)]->loop.now(),
                std::move(m));
}

void Scenario::add_ue(const UeSpec& spec) {
  const int dom = domain_of(spec.cell_indices, "add_ue");
  for (const auto& set : spec.serving_sets) {
    (void)domain_of(set, "add_ue serving_sets");
  }
  mac::UeConfig cfg;
  cfg.id = spec.id;
  cfg.rnti = rnti_for(spec.id);
  for (std::size_t idx : spec.cell_indices) {
    cfg.aggregated_cells.push_back(cell_cfgs_.at(idx).id);
  }
  cfg.channel.trace = spec.trace;
  cfg.channel.noise_floor_dbm = spec.noise_floor_dbm;
  cfg.channel.seed = rng_.next_u64();
  cfg.scheduling_weight = spec.scheduling_weight;

  ue_records_[spec.id] = UeRecord{spec, dom, 0};
  domains_[static_cast<std::size_t>(dom)]->bs->add_ue(
      cfg, make_delivery_handler(spec.id));
}

int Scenario::add_flow(const FlowSpec& spec) {
  const auto rec_it = ue_records_.find(spec.ue);
  if (rec_it == ue_records_.end()) {
    throw std::invalid_argument("add_flow: UE not registered");
  }
  const UeRecord& rec = rec_it->second;
  const int dom = rec.domain;
  auto& dloop = domains_[static_cast<std::size_t>(dom)]->loop;
  auto* dbs = domains_[static_cast<std::size_t>(dom)]->bs.get();
  // PBE clients decode one base station's control channel and ABC reads
  // one base station's explicit rate: a cross-cluster migration would
  // silently detach both. Reject at registration.
  if (needs_pbe_client(spec.algo) || spec.algo == "abc") {
    for (const auto& set : rec.spec.serving_sets) {
      if (domain_of(set, "add_flow") != dom) {
        throw std::invalid_argument(
            "add_flow: " + spec.algo +
            " flows cannot migrate across cell clusters");
      }
    }
  }
  auto ctx = std::make_unique<FlowCtx>();
  FlowCtx* ctxp = ctx.get();
  ctx->spec = spec;
  ctx->domain = dom;
  ctx->stats = std::make_unique<FlowStats>();
  const auto flow_id = static_cast<net::FlowId>(flows_.size() + 1);

  // --- Controller (and PBE client when needed).
  std::unique_ptr<net::CongestionController> cc;
  if (spec.algo == "fixed") {
    if (spec.fixed_rate <= 0) throw std::invalid_argument("fixed flow needs rate");
    cc = std::make_unique<net::FixedRateController>(spec.fixed_rate);
  } else if (spec.algo == "pbe" && spec.pbe_cwnd_gain > 0) {
    pbe::PbeSenderConfig pscfg;
    pscfg.cwnd_gain = spec.pbe_cwnd_gain;
    pscfg.seed = rng_.next_u64();
    cc = std::make_unique<pbe::PbeSender>(pscfg);
  } else {
    cc = make_controller(spec.algo, rng_.next_u64());
  }

  // --- Downlink path: sender -> [Internet bottleneck] -> delay -> BS queue.
  const mac::UeId ue = spec.ue;
  ctx->downlink = std::make_unique<net::DelayLink>(
      dloop, spec.path.one_way_delay,
      [this, ue, dom](net::Packet pkt) {
        route_downlink(ue, std::move(pkt), dom);
      },
      spec.path.jitter, rng_.next_u64());

  net::PacketHandler egress;
  if (spec.path.internet_rate > 0) {
    net::BottleneckLink::Config bl;
    bl.rate = spec.path.internet_rate;
    bl.buffer_bytes = spec.path.internet_buffer_bytes;
    bl.propagation_delay = 0;  // delay applied by the DelayLink stage
    ctx->bottleneck = std::make_unique<net::BottleneckLink>(
        dloop, bl, [d = ctx->downlink.get()](net::Packet pkt) { d->send(std::move(pkt)); });
    egress = [b = ctx->bottleneck.get()](net::Packet pkt) { b->send(std::move(pkt)); };
  } else {
    egress = [d = ctx->downlink.get()](net::Packet pkt) { d->send(std::move(pkt)); };
  }

  // --- Sender.
  net::FlowSender::Config scfg;
  scfg.id = flow_id;
  scfg.start_time = spec.start;
  scfg.stop_time = spec.stop;
  ctx->sender = std::make_unique<net::FlowSender>(dloop, scfg, std::move(cc),
                                                  std::move(egress));

  // --- Receiver; ACKs return over a symmetric fixed-delay uplink, in
  // order except where a feedback-delay spike holds one back.
  ctx->uplink = std::make_unique<net::InOrderStream<net::Ack>>(
      dloop, [sender_ptr = ctx->sender.get()](net::Ack ack) {
        sender_ptr->on_ack(ack);
      });
  const util::Duration up_delay = spec.path.one_way_delay;
  net::EventLoop* lp = &dloop;
  ctx->receiver = std::make_unique<net::FlowReceiver>(
      dloop, flow_id, [this, up_delay, flow_id, lp, ctxp](net::Ack ack) {
        util::Duration delay = up_delay;
        if (faults_) {
          const fault::FeedbackFault ff = faults_->feedback_fault(
              lp->now(), static_cast<std::uint32_t>(flow_id), ack.seq);
          if (ff.drop) {
            static obs::Counter& drops = obs::counter("fault.feedback_drops");
            drops.inc();
            obs::emit(obs::EventKind::kFaultInjected, lp->now(), 0,
                      static_cast<std::uint32_t>(
                          fault::FaultType::kFeedbackDrop),
                      static_cast<std::int64_t>(flow_id));
            return;  // the ACK never reaches the sender
          }
          if (ff.corrupt && ack.pbe_rate_interval_us != 0) {
            ack.pbe_rate_interval_us = faults_->corrupt_word(
                ack.pbe_rate_interval_us, static_cast<std::uint32_t>(flow_id),
                ack.seq);
            static obs::Counter& corruptions =
                obs::counter("fault.feedback_corruptions");
            corruptions.inc();
            obs::emit(obs::EventKind::kFaultInjected, lp->now(), 0,
                      static_cast<std::uint32_t>(
                          fault::FaultType::kFeedbackCorrupt),
                      static_cast<std::int64_t>(flow_id));
          }
          if (ff.extra_delay > 0) {
            delay += ff.extra_delay;
            if (!ctxp->in_delay_spike) {
              ctxp->in_delay_spike = true;
              static obs::Counter& spikes =
                  obs::counter("fault.feedback_delay_spikes");
              spikes.inc();
              obs::emit(obs::EventKind::kFaultInjected, lp->now(), 0,
                        static_cast<std::uint32_t>(
                            fault::FaultType::kFeedbackDelay),
                        static_cast<std::int64_t>(flow_id));
            }
          } else {
            ctxp->in_delay_spike = false;
          }
        }
        ctxp->uplink->send(lp->now() + delay, ack);
      });
  ctx->receiver->set_delivery_observer(
      [st = ctx->stats.get()](const net::Packet& pkt, util::Time now) {
        st->on_delivery(pkt, now);
      });

  // --- ABC-style oracle: the base station stamps each ACK with its own
  // fair-share estimate for this user (no endpoint measurement involved).
  if (spec.algo == "abc") {
    ctx->receiver->set_feedback_filler(
        [dbs, ue](const net::Packet&, util::Time, net::Ack& ack) {
          const util::RateBps rate = dbs->explicit_rate_bps(ue);
          if (rate > 1000.0) {
            ack.pbe_rate_interval_us = static_cast<std::uint32_t>(
                std::clamp(1500.0 * 8.0 / rate * 1e6, 1.0, 4e9));
          }
        });
  }

  // --- PBE-CC client: decoder monitor + feedback filler.
  if (needs_pbe_client(spec.algo)) {
    pbe::PbeClientConfig pcfg;
    pcfg.rnti = rnti_for(spec.ue);
    for (std::size_t idx : rec.spec.cell_indices) {
      pcfg.cells.push_back(cell_cfgs_.at(idx));
    }
    pcfg.seed = rng_.next_u64();
    pcfg.faults = faults_.get();
    if (!spec.pbe_control_filter) {
      pcfg.tracker.min_active_subframes = 0;
      pcfg.tracker.min_average_prbs = 0;
    }
    const double extra_ber = spec.pbe_monitor_extra_ber;
    ctx->client = std::make_unique<pbe::PbeClient>(
        pcfg, [dbs, ue, extra_ber](phy::CellId cell) {
          auto ch = dbs->channel_state(ue, cell);
          ch.control_ber += extra_ber;
          return ch;
        });
    // Capture and telemetry taps both attach to the first PBE flow; they
    // compose into one ClientTaps so record+telemetry runs work.
    pbe::ClientTaps taps{};
    bool want_taps = false;
    if ((cfg_.capture.writer != nullptr || cfg_.capture.digest != nullptr) &&
        !capture_attached_) {
      capture_attached_ = true;
      if (cfg_.capture.writer != nullptr && !cfg_.capture.writer->begun()) {
        cfg_.capture.writer->begin(cap::capture_header(pcfg, faults_.get()));
      }
      taps = cap::make_client_taps(cfg_.capture.writer, cfg_.capture.digest);
      want_taps = true;
    }
    if (cfg_.capture.telemetry != nullptr && telemetry_flow_ < 0) {
      telemetry_flow_ = static_cast<int>(flows_.size());
      auto& trec = cfg_.capture.telemetry->recorder();
      trec.set_meta("algo", spec.algo);
      trec.set_meta("seed", std::to_string(cfg_.seed));
      trec.set_meta("interval_us", std::to_string(cfg_.capture.telemetry->interval()));
      trec.set_meta("fault_active", cfg_.fault.active() ? "1" : "0");
      if (cfg_.fault.active()) {
        trec.set_meta("fault_seed", std::to_string(cfg_.fault_seed));
      }
      auto& pipeline = cfg_.capture.telemetry->pipeline();
      pipeline.attach(&ctx->client->monitor(), &ctx->client->estimator());
      taps.on_batch_end = [p = &pipeline](std::int64_t sf) {
        p->on_batch_end(sf);
      };
      want_taps = true;
    }
    if (want_taps) ctx->client->set_taps(std::move(taps));
    // Batched: the client's monitor decodes all of one tick's cells at
    // once, on the thread that steps this UE's domain.
    dbs->add_pdcch_batch_observer(
        [c = ctx->client.get()](const std::vector<phy::PdcchSubframe>& sfs) {
          c->on_pdcch_batch(sfs);
        });
    ctx->receiver->set_feedback_filler(
        [c = ctx->client.get()](const net::Packet& pkt, util::Time now, net::Ack& ack) {
          c->fill_feedback(pkt, now, ack);
        });
  }

  ue_receivers_[spec.ue][flow_id] = ctx->receiver.get();
  flow_domain_[flow_id] = dom;
  flows_.push_back(std::move(ctx));
  return static_cast<int>(flows_.size()) - 1;
}

void Scenario::add_background(const BackgroundSpec& spec) {
  const int dom = cell_domain_.at(spec.cell_index);
  auto group = std::make_unique<BgGroup>();
  group->spec = spec;
  group->domain = dom;
  auto* dbs = domains_[static_cast<std::size_t>(dom)]->bs.get();
  for (int i = 0; i < spec.n_users; ++i) {
    const mac::UeId id = next_bg_ue_++;
    mac::UeConfig cfg;
    cfg.id = id;
    cfg.rnti = rnti_for(id);
    cfg.aggregated_cells = {cell_cfgs_.at(spec.cell_index).id};
    const double rssi = rng_.normal(kBackgroundRssiMeanDbm, spec.rssi_sigma_db);
    cfg.channel.trace = phy::MobilityTrace::stationary(rssi);
    cfg.channel.seed = rng_.next_u64();
    dbs->add_ue(cfg, [](net::Packet) { /* background payload: discard */ });
    group->users.push_back(id);
  }
  // Fork the session RNG at registration: arrivals draw on the domain
  // thread during parallel stepping, so they must not share the scenario
  // RNG (a data race, and order-dependent even single-threaded).
  group->rng = util::Rng(rng_.next_u64());
  group->flow_seq = bg_flow_seq_;
  bg_flow_seq_ += 1u << 16;  // private flow-id block per group
  schedule_bg_sessions(group.get());
  bg_groups_.push_back(std::move(group));
}

void Scenario::add_background_aggregate(const AggregateBackgroundSpec& spec) {
  const int dom = cell_domain_.at(spec.cell_index);
  mac::AggregateTrafficConfig cfg = spec.traffic;
  cfg.seed ^= rng_.next_u64();
  domains_[static_cast<std::size_t>(dom)]->bs->set_aggregate_traffic(
      cell_cfgs_.at(spec.cell_index).id, cfg);
}

void Scenario::schedule_bg_sessions(BgGroup* g) {
  if (g->users.empty() || g->spec.sessions_per_sec <= 0) return;
  auto& dloop = domains_[static_cast<std::size_t>(g->domain)]->loop;
  auto* dbs = domains_[static_cast<std::size_t>(g->domain)]->bs.get();
  // Recurring Poisson session arrivals. Each session trickles fixed-rate
  // packets straight into its user's base-station queue (the wired leg of
  // background flows is irrelevant to the cell under study). Background
  // UEs never migrate, so the enqueue is always domain-local.
  const auto arrival = [g, &dloop, dbs](const auto& self) -> void {
    const auto gap = static_cast<util::Duration>(
        g->rng.exponential(1.0 / g->spec.sessions_per_sec) * util::kSecond);
    dloop.schedule_in(std::max<util::Duration>(gap, util::kMillisecond), [g, &dloop, dbs, self] {
      const mac::UeId ue = g->users[static_cast<std::size_t>(g->rng.uniform_int(
          0, static_cast<std::int64_t>(g->users.size()) - 1))];
      const double rate = g->rng.uniform(g->spec.rate_lo, g->spec.rate_hi);
      const auto duration = static_cast<util::Duration>(
          g->rng.exponential(util::to_seconds(g->spec.mean_duration)) * util::kSecond);
      const util::Time end = dloop.now() + std::max<util::Duration>(duration, 10 * util::kMillisecond);
      const auto flow = static_cast<net::FlowId>(g->flow_seq++);
      const util::Duration interval =
          util::transmission_delay(net::kDefaultMss, rate);

      // Per-session packet pump.
      const auto pump = [ue, end, flow, interval, &dloop, dbs](const auto& pump_self) -> void {
        if (dloop.now() >= end) return;
        net::Packet pkt;
        pkt.flow = flow;
        pkt.seq = 0;
        pkt.bytes = net::kDefaultMss;
        pkt.sent_time = dloop.now();
        dbs->enqueue(ue, std::move(pkt));
        dloop.schedule_in(std::max<util::Duration>(interval, 50), [pump_self] { pump_self(pump_self); });
      };
      pump(pump);
      self(self);  // schedule the next session arrival
    });
  };
  arrival(arrival);
}

void Scenario::schedule_telemetry_sampling() {
  if (cfg_.capture.telemetry == nullptr || telemetry_flow_ < 0) return;
  auto* ctx = flows_.at(static_cast<std::size_t>(telemetry_flow_)).get();
  const mac::UeId ue = ctx->spec.ue;
  const int home = ctx->domain;
  auto& dloop = domains_[static_cast<std::size_t>(home)]->loop;
  auto* dbs = domains_[static_cast<std::size_t>(home)]->bs.get();
  tel::Recorder* rec = &cfg_.capture.telemetry->recorder();
  const util::Duration interval =
      std::max<util::Duration>(cfg_.capture.telemetry->interval(), util::kMillisecond);

  const auto sample = [this, ue, home, rec, dbs, sender = ctx->sender.get(),
                       client = ctx->client.get()](util::Time now) {
    // Scheduler-side ground truth, one series set per active cell. The
    // sampling event was scheduled before this tick's base-station event,
    // so at t it reads state as of subframe t-1 — the same subframe the
    // pipeline half's sample at t covers (estimator `now` convention).
    // Skipped while the UE is migrated out of the flow's home domain:
    // another shard's base station cannot be read mid-step.
    if (ue_records_.at(ue).domain == home) {
      for (const auto& gt : dbs->ground_truth(ue)) {
        const std::string base = "truth.cell" + std::to_string(gt.cell) + ".";
        rec->append_f64(base + "fair_bits_sf", "bits/sf", now, gt.fair_bits_sf);
        rec->append_f64(base + "avail_bits_sf", "bits/sf", now, gt.avail_bits_sf);
        rec->append_i64(base + "users", "users", now, gt.active_users);
        rec->append_i64(base + "idle_prbs", "prbs", now, gt.idle_prbs);
        rec->append_i64(base + "own_prbs", "prbs", now, gt.own_prbs);
      }
      rec->append_i64("bs.queue_bytes", "bytes", now, dbs->queue_bytes(ue));
    }
    // Flow transport state.
    rec->append_f64("flow.pacing_bps", "bps", now,
                    sender->controller().pacing_rate(now));
    rec->append_f64("flow.cwnd_bytes", "bytes", now,
                    sender->controller().cwnd_bytes(now));
    rec->append_i64("flow.inflight_bytes", "bytes", now,
                    static_cast<std::int64_t>(sender->bytes_in_flight()));
    rec->append_i64("flow.delivered_bytes", "bytes", now,
                    static_cast<std::int64_t>(sender->total_delivered_bytes()));
    rec->append_i64("flow.srtt_us", "us", now, sender->smoothed_rtt());
    // Degradation machine + client state (PBE flows).
    if (const auto* ps =
            dynamic_cast<const pbe::PbeSender*>(&sender->controller())) {
      rec->append_i64("pbe.degradation_state", "state", now,
                      static_cast<std::int64_t>(ps->degradation_state()));
      rec->append_f64("pbe.confidence", "ratio", now,
                      ps->degradation().confidence());
      rec->append_f64("pbe.feedback_bps", "bps", now, ps->feedback_rate());
      rec->append_i64("pbe.rtprop_us", "us", now, ps->rtprop());
      // Hybrid estimator cross-check (DESIGN.md §13). The sidecar runs for
      // every PbeSender, so the delay-side series are always meaningful;
      // blend weight is pinned at 1 for non-hybrid flows.
      rec->append_f64("pbe.blend_weight", "ratio", now, ps->blend_weight());
      rec->append_i64("pbe.divergence", "bool", now,
                      ps->degradation().diverged() ? 1 : 0);
      rec->append_f64("bwe.target_bps", "bps", now,
                      ps->delay_bwe().target_bps());
      rec->append_f64("bwe.acked_bps", "bps", now,
                      ps->delay_bwe().acked_bps());
      rec->append_f64("bwe.trendline_slope", "ms/ms", now,
                      ps->delay_bwe().trendline().slope());
      rec->append_i64("bwe.overuse_state", "state", now,
                      static_cast<std::int64_t>(ps->delay_bwe().usage()));
    }
    if (client != nullptr) {
      rec->append_i64("pbe.client_state", "state", now,
                      static_cast<std::int64_t>(client->state()));
    }
    rec->append_i64("check.violations", "count", now,
                    static_cast<std::int64_t>(check::violations()));
  };

  // Recurring event on exact k*interval sim-clock boundaries. Each firing
  // schedules the next, so a sample event always enters the queue before
  // the same-timestamp base-station tick (FIFO tie-break) — see above.
  const auto tick = [&dloop, sample, interval](const auto& self) -> void {
    const util::Time now = dloop.now();
    const util::Time next = (now / interval) * interval + interval;
    dloop.schedule_in(next - now, [&dloop, sample, self] {
      sample(dloop.now());
      self(self);
    });
  };
  tick(tick);
}

std::uint64_t Scenario::storm_handovers() const {
  std::uint64_t n = 0;
  for (const auto& dom : domains_) n += dom->storm_handovers;
  return n;
}

void Scenario::storm_tick(std::size_t d) {
  Domain* dom = domains_[d].get();
  for (auto& [id, rec] : ue_records_) {
    if (rec.domain != static_cast<int>(d)) continue;
    const std::size_t k = ++rec.rotation;
    std::vector<std::size_t> idxs;
    int target = static_cast<int>(d);
    if (rec.spec.serving_sets.empty()) {
      // Classic rotation inside the registered set (single-cell UEs are
      // re-handed to the same cell, which still abandons all in-flight
      // HARQ blocks — the disruptive part).
      const auto& base = rec.spec.cell_indices;
      idxs.reserve(base.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        idxs.push_back(base[(i + k) % base.size()]);
      }
    } else {
      // Rotate through {registered set, serving_sets...}; a set in
      // another cluster becomes a cross-shard migration request, applied
      // at the next subframe barrier.
      const std::size_t n = rec.spec.serving_sets.size() + 1;
      const std::size_t pick = k % n;
      idxs = pick == 0 ? rec.spec.cell_indices
                       : rec.spec.serving_sets[pick - 1];
      target = cell_domain_.at(idxs.front());
    }
    if (target == static_cast<int>(d)) {
      std::vector<phy::CellId> cells;
      cells.reserve(idxs.size());
      for (std::size_t idx : idxs) cells.push_back(cell_cfgs_.at(idx).id);
      dom->bs->handover(id, cells);
    } else {
      ShardMsg m;
      m.kind = ShardMsg::Kind::kMigrate;
      m.ue = id;
      m.new_cells = idxs;
      m.target_domain = target;
      mailbox_.post(static_cast<std::uint32_t>(d), dom->loop.now(),
                    std::move(m));
    }
    ++dom->storm_handovers;
    static obs::Counter& storms = obs::counter("fault.storm_handovers");
    storms.inc();
    obs::emit(obs::EventKind::kFaultInjected, dom->loop.now(),
              static_cast<std::uint16_t>(cell_cfgs_.at(idxs.front()).id),
              static_cast<std::uint32_t>(fault::FaultType::kHandoverStorm),
              static_cast<std::int64_t>(id));
  }
}

void Scenario::do_migrate(mac::UeId ue,
                          const std::vector<std::size_t>& cell_indices,
                          int target) {
  UeRecord& rec = ue_records_.at(ue);
  std::vector<phy::CellId> cells;
  cells.reserve(cell_indices.size());
  for (std::size_t idx : cell_indices) {
    cells.push_back(cell_cfgs_.at(idx).id);
  }
  if (rec.domain == target) {
    // Same-cluster move (duplicate request or plain serving-set change):
    // an ordinary handover.
    domains_[static_cast<std::size_t>(target)]->bs->handover(ue, cells);
    return;
  }
  // Extract abandons in-flight HARQ synchronously (deliveries released by
  // the reordering drain route through route_delivery, which delivers
  // directly while in_barrier_), then the full UE state moves across.
  mac::UeMigration m =
      domains_[static_cast<std::size_t>(rec.domain)]->bs->extract_ue(ue);
  domains_[static_cast<std::size_t>(target)]->bs->admit_ue(
      std::move(m), cells, make_delivery_handler(ue));
  rec.domain = target;
}

void Scenario::apply_msg(ShardMsg msg) {
  switch (msg.kind) {
    case ShardMsg::Kind::kPacket:
      domains_[static_cast<std::size_t>(ue_records_.at(msg.ue).domain)]
          ->bs->enqueue(msg.ue, std::move(msg.pkt));
      break;
    case ShardMsg::Kind::kDeliver:
      route_delivery(msg.ue, std::move(msg.pkt));
      break;
    case ShardMsg::Kind::kMigrate:
      do_migrate(msg.ue, msg.new_cells, msg.target_domain);
      break;
  }
}

par::ThreadPool& Scenario::shard_pool() {
  if (!pool_) {
    pool_ = std::make_unique<par::ThreadPool>(
        std::clamp(cfg_.shards, 1, static_cast<int>(domains_.size())));
  }
  return *pool_;
}

void Scenario::start_once() {
  if (started_) return;
  started_ = true;
  for (auto& dom : domains_) dom->bs->start();
  schedule_telemetry_sampling();
  if (faults_ && cfg_.fault.handover_storm_duty > 0 &&
      cfg_.fault.handover_interval > 0) {
    // Storm driver, one per domain: every handover_interval, while a
    // storm window is active, hand over every UE the domain currently
    // hosts. Runs inside the domain's own event sequence, so its mailbox
    // posts carry deterministic (time, source, seq) keys.
    for (std::size_t d = 0; d < domains_.size(); ++d) {
      Domain* dom = domains_[d].get();
      const auto driver = [this, d, dom](const auto& self) -> void {
        dom->loop.schedule_in(cfg_.fault.handover_interval, [this, d, dom, self] {
          if (faults_->handover_storm(dom->loop.now())) storm_tick(d);
          self(self);
        });
      };
      driver(driver);
    }
  }
}

void Scenario::run_until(util::Time t) {
  start_once();
  const bool traced = cfg_.capture.trace != nullptr;
  while (now_ < t) {
    const util::Time step = std::min<util::Time>(
        t, (now_ / kShardBarrier + 1) * kShardBarrier);
    // Parallel phase: each domain advances to the barrier on a worker,
    // tracing into its own buffer. No shared mutable state is touched
    // (mailbox lanes are single-writer, UE domain tags are frozen). The
    // closure holds only [this, step], which fits std::function's inline
    // buffer, so a step allocates nothing.
    shard_pool().parallel_for(domains_.size(), [this, step](std::size_t d) {
      Domain& dom = *domains_[d];
      obs::ThreadSinkScope sink(cfg_.capture.trace ? &dom.trace_buf : nullptr);
      dom.loop.run_until(step);
    });
    // Serial phase: apply cross-domain messages in merged (time, source,
    // seq) order with every clock aligned at `step`, tracing into the
    // barrier buffer. Then the trace takes the domain buffers in
    // domain-index order (canonical, worker-independent) and the
    // barrier's events after them.
    in_barrier_ = true;
    {
      obs::ThreadSinkScope sink(traced ? &barrier_trace_buf_ : nullptr);
      for (auto& msg : mailbox_.drain()) {
        apply_msg(std::move(msg.payload));
      }
    }
    in_barrier_ = false;
    if (traced) {
      for (auto& dom : domains_) {
        cfg_.capture.trace->record_batch(dom->trace_buf);
        dom->trace_buf.clear();
      }
      cfg_.capture.trace->record_batch(barrier_trace_buf_);
      barrier_trace_buf_.clear();
    }
    now_ = step;
  }
}

}  // namespace pbecc::sim
