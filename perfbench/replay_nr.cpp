// replay_nr: the measurement pipeline alone, on a mixed LTE+NR trace.
//
// Set-up records kTraces short PBE flows, one per sub-seed, at location 30
// with nr_numerology = 3: idle cells, an LTE primary plus two 120 kHz NR
// secondaries (16 NR slots and one LTE subframe per 1 ms batch), so the
// decoder runs the polar stand-in Viterbi beside repetition decoding. An
// operation replays one trace through cap::ReplayDriver, and a round
// replays each trace once; there is no MAC and no network.
//
// The traced run adds a layered pass that rebuilds Monitor's fault-free
// pipeline from public calls (bit noise seeded with the header's monitor
// seed, BlindDecoder compute/apply, MessageFusion, UserTracker, the
// CapacityEstimator and its probe queries) so each layer can be timed on
// its own. It must fold exactly the recording's PipelineDigest, so it is
// checked in every run.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <unistd.h>

#include "cap/replay.h"
#include "cap/trace_reader.h"
#include "cap/trace_writer.h"
#include "check/check.h"
#include "decoder/message_fusion.h"
#include "decoder/user_tracker.h"
#include "perfbench.h"
#include "sim/location.h"

namespace perfbench {
namespace {

using namespace pbecc;

constexpr int kLocation = 30;
constexpr int kNumerology = 3;
// Many short flows rather than a few long ones: a recorded flow's goodput
// has a heavy upper tail, and the median of 32 one-second flows spreads
// less from seed to seed (7% over seeds 1-10) than that of 16 two-second
// flows (11%) for about the same recording and replay time.
constexpr util::Duration kFlow = 1 * util::kSecond;
constexpr int kTraces = 32;
constexpr std::size_t kLayeredChecks = 4;

// The pinned recording: location seed 1, whatever --seed is. Its results
// and pipeline digest must not change.
constexpr std::uint64_t kPinnedSeed = 1;
constexpr double kPinnedGoodputMbps = 16.672672672672672;
constexpr double kPinnedDelayP95Ms = 38.795249999999989;
constexpr std::uint64_t kPinnedObservationDigest = 6703300142305966298ULL;
constexpr std::uint64_t kPinnedProbeDigest = 6350912258568287540ULL;

struct Recording {
  std::int64_t wall_ns = 0;
  bool ok = false;
  double goodput_mbps = 0;
  double delay_p95_ms = 0;
  cap::PipelineDigest digest;
};

struct Pass {
  OpTime time;
  bool ok = false;
  std::uint64_t lte_ticks = 0;
  std::uint64_t nr_ticks = 0;
  cap::PipelineDigest digest;
  DecodeCounts decode;
};

sim::LocationProfile profile(std::uint64_t seed) {
  sim::LocationProfile loc = sim::location(kLocation);
  loc.nr_numerology = kNumerology;
  loc.seed = seed;
  return loc;
}

// Records one flow into `path` ("" = digest only).
Recording record(std::uint64_t seed, const std::string& path) {
  Recording out;
  const std::int64_t t0 = now_ns();
  std::unique_ptr<cap::TraceWriter> writer;
  if (!path.empty()) writer = std::make_unique<cap::TraceWriter>(path);
  const sim::CaptureOptions capture{writer.get(), &out.digest};
  const sim::LocationRunResult live =
      sim::run_location(profile(seed), "pbe", kFlow, nullptr, 1, capture);
  out.ok = writer == nullptr || writer->close();
  out.wall_ns = now_ns() - t0;
  if (!out.ok) std::fprintf(stderr, "record: %s\n", writer->error().c_str());
  out.goodput_mbps = live.avg_tput_mbps;
  out.delay_p95_ms = live.p95_delay_ms;
  return out;
}

void count_ticks(Pass& p, const cap::BatchRecord& batch,
                 const std::map<phy::CellId, bool>& is_nr) {
  for (const auto& c : batch.cells) {
    const auto it = is_nr.find(c.cell);
    if (it == is_nr.end()) continue;
    ++(it->second ? p.nr_ticks : p.lte_ticks);
  }
}

std::map<phy::CellId, bool> nr_cells(const cap::TraceHeader& h) {
  std::map<phy::CellId, bool> out;
  for (const auto& c : h.cells) out[c.id] = c.rat == phy::Rat::kNr;
  return out;
}

// One replay through cap::ReplayDriver, timing every batch step.
Pass replay(const std::string& path, Tracer& tr) {
  const std::uint32_t id_read = tr.intern("cap.read");
  const std::uint32_t id_batch = tr.intern("cap.step.batch");
  const std::uint32_t id_window = tr.intern("cap.step.window");
  const std::uint32_t id_probe = tr.intern("cap.step.probe");
  Pass out;
  const std::int64_t t0 = now_ns();
  cap::TraceReader reader(path);
  cap::ReplayDriver driver(reader.header(), &out.digest);
  const auto is_nr = nr_cells(reader.header());
  cap::Record rec;
  for (;;) {
    tr.open(id_read);
    const bool more = reader.next(rec);
    tr.close();
    if (!more) break;
    const std::int64_t a = now_ns();
    switch (rec.kind) {
      case cap::Record::Kind::kBatch:
        tr.open(id_batch);
        driver.step(rec);
        tr.close();
        out.time.tick_us.push_back(static_cast<double>(now_ns() - a) / 1e3);
        count_ticks(out, rec.batch, is_nr);
        break;
      case cap::Record::Kind::kWindow:
        tr.open(id_window);
        driver.step(rec);
        tr.close();
        break;
      case cap::Record::Kind::kProbe:
        tr.open(id_probe);
        driver.step(rec);
        tr.close();
        break;
    }
  }
  out.time.wall_ns = now_ns() - t0;
  out.time.cell_ticks = out.lte_ticks + out.nr_ticks;
  out.ok = reader.ok();
  if (!out.ok) std::fprintf(stderr, "replay: %s\n", reader.error().c_str());
  for (const auto& c : reader.header().cells) {
    out.decode.add(driver.monitor().decoder(c.id));
  }
  return out;
}

// Monitor::on_pdcch_batch and ReplayDriver::step, fault-free, rebuilt from
// the layers' public calls in the same order, with a span around each.
Pass layered(const std::string& path, Tracer& tr) {
  const std::uint32_t id_read = tr.intern("cap.read");
  const std::uint32_t id_noise = tr.intern("phy.noise");
  const std::uint32_t id_lte = tr.intern("decoder.blind.lte");
  const std::uint32_t id_nr = tr.intern("decoder.blind.nr");
  const std::uint32_t id_fusion = tr.intern("decoder.fusion");
  const std::uint32_t id_tracker = tr.intern("decoder.tracker");
  const std::uint32_t id_estimator = tr.intern("pbe.estimator");
  using Scope = Tracer::Scope;

  Pass out;
  const std::int64_t t0 = now_ns();
  cap::TraceReader reader(path);
  const cap::TraceHeader& h = reader.header();
  if (h.fault_active) {
    std::fprintf(stderr, "layered pass: the recording has faults\n");
    return out;
  }
  const auto is_nr = nr_cells(h);
  util::Rng rng(h.monitor_seed);
  pbe::CapacityEstimator estimator;
  if (!h.cells.empty()) estimator.set_primary_cell(h.cells.front().id);
  std::map<phy::CellId, std::unique_ptr<decoder::BlindDecoder>> decoders;
  std::map<phy::CellId, std::unique_ptr<decoder::UserTracker>> trackers;
  std::map<phy::CellId, const phy::CellConfig*> cells;
  std::map<phy::CellId, double> cur_ber, cur_bpp;

  decoder::MessageFusion fusion([&](const decoder::FusedSubframe& fused) {
    std::vector<decoder::CellObservation> obs;
    obs.reserve(fused.cells.size());
    for (const auto& cm : fused.cells) {
      decoder::CellObservation o;
      o.cell = cm.cell;
      o.sf_index = cm.sf_index;
      o.tick = cells.at(cm.cell)->tick();
      o.cell_prbs = cells.at(cm.cell)->n_prbs();
      {
        const Scope s(tr, id_tracker);
        o.summary = trackers.at(cm.cell)->on_subframe(cm.sf_index, cm.messages,
                                                      h.own_rnti);
      }
      obs.push_back(o);
    }
    if (obs.empty()) return;
    out.digest.on_observations(obs);
    util::Time now = 0;
    for (const auto& o : obs) now = std::max(now, (o.sf_index + 1) * o.tick);
    const Scope s(tr, id_estimator);
    estimator.on_observations(now, obs, [&](phy::CellId c) {
      const auto it = cur_bpp.find(c);
      return it != cur_bpp.end() ? it->second : 0.0;
    });
  });
  for (const auto& c : h.cells) {
    decoders.emplace(c.id, std::make_unique<decoder::BlindDecoder>(c));
    trackers.emplace(c.id, std::make_unique<decoder::UserTracker>(
                               c.n_prbs(), h.tracker, c.tick()));
    cells[c.id] = &c;
    fusion.register_cell(c.id, c.tick());
  }

  struct Pending {
    phy::PdcchSubframe sf;
    decoder::BlindDecoder* dec = nullptr;
    std::uint32_t span = 0;
    decoder::DecodeRun run;
  };
  std::vector<Pending> pending;
  cap::Record rec;
  for (;;) {
    tr.open(id_read);
    const bool more = reader.next(rec);
    tr.close();
    if (!more) break;
    switch (rec.kind) {
      case cap::Record::Kind::kBatch: {
        for (const auto& c : rec.batch.cells) {
          cur_ber[c.cell] = c.control_ber;
          cur_bpp[c.cell] = c.bits_per_prb;
        }
        pending.clear();
        for (const auto& c : rec.batch.cells) {
          const auto it = decoders.find(c.cell);
          if (it == decoders.end()) continue;
          Pending p;
          p.sf.cell_id = c.cell;
          p.sf.sf_index = c.sf_index;
          p.sf.tick = c.tick;
          p.sf.n_cces = c.n_cces;
          p.sf.coding = c.coding;
          p.sf.bits = c.bits;
          p.sf.cce_used = c.cce_used;
          p.dec = it->second.get();
          p.span = is_nr.at(c.cell) ? id_nr : id_lte;
          const double ber = cur_ber.at(c.cell);
          if (ber > 0) {
            const Scope s(tr, id_noise);
            phy::apply_bit_noise(p.sf, ber, rng);
          }
          pending.push_back(std::move(p));
        }
        for (Pending& p : pending) {
          const Scope s(tr, p.span);
          p.run = p.dec->decode_compute(p.sf);
        }
        for (Pending& p : pending) {
          std::vector<phy::Dci> messages;
          {
            const Scope s(tr, p.span);
            messages = p.dec->decode_apply(p.run);
          }
          const Scope s(tr, id_fusion);
          fusion.on_decoded(p.sf.cell_id, p.sf.sf_index, std::move(messages));
        }
        count_ticks(out, rec.batch, is_nr);
        break;
      }
      case cap::Record::Kind::kWindow: {
        const Scope s(tr, id_estimator);
        estimator.set_window(rec.window.window);
        for (auto& [id, t] : trackers) t->set_window(rec.window.window);
        break;
      }
      case cap::Record::Kind::kProbe: {
        const Scope s(tr, id_estimator);
        const double cf = estimator.fair_share_capacity(rec.probe.t);
        const double cp = estimator.available_capacity(rec.probe.t);
        const int active = estimator.active_cell_count(rec.probe.t);
        out.digest.on_probe(cf, cp, active);
        break;
      }
    }
  }
  out.time.wall_ns = now_ns() - t0;
  out.time.cell_ticks = out.lte_ticks + out.nr_ticks;
  out.ok = reader.ok();
  if (!out.ok) std::fprintf(stderr, "layered pass: %s\n", reader.error().c_str());
  for (const auto& [id, dec] : decoders) out.decode.add(*dec);
  return out;
}

}  // namespace

Report run_replay_nr(const Options& opt) {
  Report r;
  HostSpeed host;
  const Recording pinned = record(kPinnedSeed, "");
  check_pinned(r, "replay_nr pinned goodput", pinned.goodput_mbps, kPinnedGoodputMbps);
  check_pinned(r, "replay_nr pinned p95 delay", pinned.delay_p95_ms, kPinnedDelayP95Ms);
  check_pinned(r, "replay_nr pinned observation digest", pinned.digest.observation_digest(),
               kPinnedObservationDigest);
  check_pinned(r, "replay_nr pinned probe digest", pinned.digest.probe_digest(),
               kPinnedProbeDigest);

  std::vector<std::string> paths;
  std::vector<Recording> recs;
  std::vector<double> setups, goodputs, delay_p95s;
  for (const std::uint64_t seed : sub_seeds(opt.seed, kTraces)) {
    paths.push_back(opt.work_dir + "/replay_nr-" + std::to_string(getpid()) +
                    "-" + std::to_string(paths.size()) + ".pbt");
    recs.push_back(record(seed, paths.back()));
    r.check(recs.back().ok, "recording " + paths.back() + " failed");
    setups.push_back(static_cast<double>(recs.back().wall_ns) / 1e9 * host.next());
    goodputs.push_back(recs.back().goodput_mbps);
    delay_p95s.push_back(recs.back().delay_p95_ms);
  }

  // Every pass of a trace, replayed or layered, must fold the recording's
  // digest and do the work of the trace's first pass.
  std::vector<Pass> first(paths.size());
  const auto check = [&](const Pass& p, std::size_t k, const std::string& what) {
    r.check(p.ok && p.digest == recs[k].digest,
            what + ": digest differs from the recording's");
    if (first[k].time.wall_ns == 0) {
      first[k] = p;
    } else {
      r.check(p.decode == first[k].decode && p.lte_ticks == first[k].lte_ticks &&
                  p.nr_ticks == first[k].nr_ticks,
              what + " did different work");
    }
  };
  const auto op = [&](bool is_layered) {
    return [&, is_layered](std::size_t k, int round, Tracer& tr) {
      Pass p = is_layered ? layered(paths[k], tr) : replay(paths[k], tr);
      check(p, k,
            std::string(is_layered ? "layered pass " : "replay ") + std::to_string(round) +
                " of trace " + std::to_string(k));
      return std::move(p.time);
    };
  };
  Tracer untraced(false);
  Timings replays(host);
  Timings layers(host);
  if (opt.trace) {
    // Half the time each to replays and to layered passes.
    if (!opt.spans_path.empty()) {
      replays.spans_path = opt.spans_path + ".replay";
      layers.spans_path = opt.spans_path + ".layered";
    }
    replays.run(std::max(1, opt.seconds / 2), true, paths.size(), op(false));
    layers.run(std::max(1, opt.seconds / 2), true, paths.size(), op(true));
  } else {
    for (std::size_t k = 0; k < kLayeredChecks; ++k) {
      check(layered(paths[k], untraced), k, "layered pass of trace " + std::to_string(k));
    }
    replays.run(opt.seconds, false, paths.size(), op(false));
  }
  for (const std::string& path : paths) std::remove(path.c_str());
  r.check(check::violations() == 0,
          "check::violations() = " + std::to_string(check::violations()));
  replays.report(r);
  report_results(r, goodputs, delay_p95s);
  r.set("setup_s", median(setups), setups.size());

  if (opt.trace) {
    // One replay round plus one layered round.
    const Ledger round = report_trace(r, "replay_nr", host, {&replays, &layers});
    std::uint64_t lte = 0, nr = 0;
    DecodeCounts decode;
    for (const Pass& p : first) {
      lte += p.lte_ticks;
      nr += p.nr_ticks;
      decode = decode + p.decode;
    }
    const double blind_lte = round.self("decoder.blind.lte");
    const double blind_nr = round.self("decoder.blind.nr");
    const double monitor = round.self("phy.noise") + blind_lte + blind_nr +
                           round.self("decoder.fusion") + round.self("decoder.tracker");
    const auto n = static_cast<std::size_t>(
        std::min(replays.traced_rounds(), layers.traced_rounds()));
    r.set("pbe.monitor_ms", monitor, n);
    r.set("pbe.monitor_us_per_cell_tick", monitor * 1e3 / static_cast<double>(lte + nr), n);
    r.set("pbe.estimator_ms", round.self("pbe.estimator"), n);
    r.set("phy.noise_ms", round.self("phy.noise"), n);
    r.set("decoder.blind_ms.lte", blind_lte, n);
    r.set("decoder.blind_ms.nr", blind_nr, n);
    r.set("decoder.blind_us_per_tick.lte", blind_lte * 1e3 / static_cast<double>(lte), n);
    r.set("decoder.blind_us_per_tick.nr", blind_nr * 1e3 / static_cast<double>(nr), n);
    r.set("decoder.fusion_ms", round.self("decoder.fusion"), n);
    r.set("decoder.tracker_ms", round.self("decoder.tracker"), n);
    r.set("cap.read_ms", round.self("cap.read"), n);
    r.set("cap.step_batch_ms", round.self("cap.step.batch"), n);
    r.set("cap.step_probe_ms", round.self("cap.step.probe"), n);
    r.set("cap.step_window_ms", round.self("cap.step.window"), n);
    report_counts(r, decode, SimCounts{});
  }
  return r;
}

}  // namespace perfbench
