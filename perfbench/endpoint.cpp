// endpoint: live PBE flows at location 26 (indoor, busy, three LTE
// carriers, repetition-coded PDCCH, per-user background), the paper's own
// setting and the full-fidelity path: MAC, PDCCH synthesis, network, the
// PBE client's measurement pipeline and the sender all run.
//
// An operation is one flow of kScenarios, one per sub-seed, each built
// exactly as sim::run_location does and stepped one 1 ms subframe per
// Scenario::run_until call. The traced rounds split each step with two
// PDCCH batch observers, one registered before add_flow and one after it
// (the client's monitor runs between them), and the client's
// on_observations tap, which fires when the monitor hands its fused
// observations to the capacity estimator.
#include <memory>

#include "check/check.h"
#include "perfbench.h"
#include "sim/location.h"

namespace perfbench {
namespace {

using namespace pbecc;

constexpr int kLocation = 26;
constexpr int kScenarios = 24;
constexpr util::Duration kFlow = 2 * util::kSecond;
constexpr util::Duration kTail = 500 * util::kMillisecond;  // as run_location
// Scenarios checked against sim::run_location before timing.
constexpr int kReferenceScenarios = 2;

// The pinned scenario: location 26 with location seed 1, whatever --seed
// is. Its results must not change.
constexpr std::uint64_t kPinnedSeed = 1;
constexpr double kPinnedGoodputMbps = 27.170488534396814;
constexpr double kPinnedDelayP95Ms = 39.127999999999993;
constexpr std::uint64_t kPinnedCandidates = 55386;

struct Outcome {
  OpTime time;
  double goodput_mbps = 0;
  double delay_p95_ms = 0;
  DecodeCounts decode;
  SimCounts sim;

  // What must repeat exactly from round to round.
  bool same_results(const Outcome& o) const {
    return goodput_mbps == o.goodput_mbps && delay_p95_ms == o.delay_p95_ms &&
           decode == o.decode && sim == o.sim;
  }
};

sim::LocationProfile profile(std::uint64_t seed) {
  sim::LocationProfile loc = sim::location(kLocation);
  loc.seed = seed;
  return loc;
}

sim::FlowSpec flow_spec(const sim::LocationProfile& loc) {
  sim::FlowSpec flow;
  flow.algo = "pbe";
  flow.ue = 1;
  flow.path.one_way_delay = loc.one_way_delay;
  flow.start = 100 * util::kMillisecond;
  flow.stop = flow.start + kFlow;
  return flow;
}

// The scenario as sim::run_location assembles it; `before_flow` runs just
// before the flow (and with it the PBE client) is added.
template <class Hook>
std::unique_ptr<sim::Scenario> build(const sim::LocationProfile& loc,
                                     Hook&& before_flow) {
  auto s = std::make_unique<sim::Scenario>(sim::scenario_config_for(loc));
  s->add_ue(sim::ue_spec_for(loc));
  sim::add_location_background(*s, loc);
  before_flow(*s);
  s->add_flow(flow_spec(loc));
  return s;
}

Outcome run_flow(const sim::LocationProfile& loc, Tracer& tr) {
  const std::uint32_t id_step = tr.intern("sim.step");
  const std::uint32_t id_monitor = tr.intern("pbe.monitor");
  const std::uint32_t id_estimator = tr.intern("pbe.estimator");
  // Outlives the scenario whose callbacks write it.
  struct Marks {
    std::int64_t before = 0;
    std::int64_t observed = -1;
  } marks;

  Outcome out;
  const SimCounts counts_before = SimCounts::now();
  const std::int64_t t_build = now_ns();
  const auto scenario = build(loc, [&](sim::Scenario& s) {
    if (!tr.enabled()) return;
    s.bs().add_pdcch_batch_observer([&marks](const auto&) {
      marks.before = now_ns();
      marks.observed = -1;
    });
  });
  out.time.setup_ns = now_ns() - t_build;
  sim::Scenario& s = *scenario;
  const int f = 0;  // the only flow
  pbe::PbeClient& client = *s.pbe_client(f);
  if (tr.enabled()) {
    pbe::ClientTaps taps;
    taps.on_observations = [&marks](const auto&) {
      if (marks.observed < 0) marks.observed = now_ns();
    };
    client.set_taps(std::move(taps));
    s.bs().add_pdcch_batch_observer([&](const auto&) {
      const std::int64_t after = now_ns();
      if (marks.observed < 0) {
        tr.add(id_monitor, marks.before, after);
      } else {
        tr.add(id_monitor, marks.before, marks.observed);
        tr.add(id_estimator, marks.observed, after);
      }
    });
  }

  const sim::FlowSpec flow = flow_spec(loc);
  const util::Time end = flow.stop + kTail;
  out.time.tick_us.reserve(static_cast<std::size_t>(end / util::kMillisecond));
  const std::int64_t t0 = now_ns();
  for (util::Time t = util::kMillisecond; t <= end; t += util::kMillisecond) {
    const std::int64_t a = now_ns();
    tr.open(id_step);
    s.run_until(t);
    tr.close();
    out.time.tick_us.push_back(static_cast<double>(now_ns() - a) / 1e3);
  }
  out.time.wall_ns = now_ns() - t0;
  out.sim = SimCounts::now() - counts_before;

  sim::FlowStats& st = s.stats(f);
  st.finish(flow.stop);
  out.time.cell_ticks = static_cast<std::uint64_t>(end / util::kSubframe) *
                        sim::scenario_config_for(loc).cells.size();
  out.goodput_mbps = st.avg_tput_mbps();
  out.delay_p95_ms = st.p95_delay_ms();
  for (phy::CellId cell = 1; cell <= 3; ++cell) {
    if (client.monitor().has_cell(cell)) {
      out.decode.add(client.monitor().decoder(cell));
    }
  }
  return out;
}

}  // namespace

Report run_endpoint(const Options& opt) {
  Report r;
  HostSpeed host;
  const sim::LocationRunResult pinned =
      sim::run_location(profile(kPinnedSeed), "pbe", kFlow);
  check_pinned(r, "endpoint pinned goodput", pinned.avg_tput_mbps, kPinnedGoodputMbps);
  check_pinned(r, "endpoint pinned p95 delay", pinned.p95_delay_ms, kPinnedDelayP95Ms);
  check_pinned(r, "endpoint pinned candidates", pinned.decode_candidates,
               kPinnedCandidates);

  std::vector<sim::LocationProfile> locs;
  for (const std::uint64_t s : sub_seeds(opt.seed, kScenarios)) {
    locs.push_back(profile(s));
  }
  // The library's own assembly of the same runs: what the benchmark's
  // stepped assembly must reproduce, and the warm-up before timing.
  std::vector<sim::LocationRunResult> refs;
  for (int k = 0; k < kReferenceScenarios; ++k) {
    refs.push_back(sim::run_location(locs[static_cast<std::size_t>(k)], "pbe", kFlow));
  }

  std::vector<Outcome> first;  // round 0, one entry per scenario
  std::vector<double> goodputs, delay_p95s;
  DecodeCounts decode;
  SimCounts sim_counts;
  std::uint64_t round_ticks = 0;
  Timings timings(host);
  timings.spans_path = opt.spans_path;
  timings.run(opt.seconds, opt.trace, locs.size(),
              [&](std::size_t k, int round, Tracer& tr) {
                Outcome o = run_flow(locs[k], tr);
                const std::string what = "endpoint round " + std::to_string(round) +
                                         " scenario " + std::to_string(k);
                if (k < refs.size()) {
                  r.check(o.goodput_mbps == refs[k].avg_tput_mbps &&
                              o.delay_p95_ms == refs[k].p95_delay_ms &&
                              o.decode.candidates() == refs[k].decode_candidates,
                          what + " differs from sim::run_location");
                }
                if (round == 0) {
                  goodputs.push_back(o.goodput_mbps);
                  delay_p95s.push_back(o.delay_p95_ms);
                  decode = decode + o.decode;
                  sim_counts = sim_counts + o.sim;
                  round_ticks += o.time.cell_ticks;
                  first.push_back(o);
                } else {
                  r.check(o.same_results(first[k]), what + " gave different results");
                }
                return std::move(o.time);
              });
  r.check(check::violations() == 0,
          "check::violations() = " + std::to_string(check::violations()));
  timings.report(r);
  report_results(r, goodputs, delay_p95s);

  if (opt.trace) {
    const Ledger round = report_trace(r, "endpoint", host, {&timings});
    const auto n = static_cast<std::size_t>(timings.traced_rounds());
    const double monitor_ms = round.self("pbe.monitor");
    r.set("pbe.monitor_ms", monitor_ms, n);
    r.set("pbe.monitor_us_per_cell_tick",
          monitor_ms * 1e3 / static_cast<double>(round_ticks), n);
    r.set("pbe.estimator_ms", round.self("pbe.estimator"), n);
    r.set("sim.step_ms", round.inclusive("sim.step"), n);
    r.set("sim.other_ms", round.self("sim.step"), n);
    r.set("sim.step_p50_us", median(timings.traced_p50s()), timings.traced_ticks());
    r.set("sim.step_p99_us", median(timings.traced_p99s()), timings.traced_ticks());
    r.set("sim.us_per_event",
          round.self("sim.step") * 1e3 / static_cast<double>(sim_counts.events_dispatched),
          n);
    report_counts(r, decode, sim_counts);
  }
  return r;
}

}  // namespace perfbench
