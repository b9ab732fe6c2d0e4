// city: 64 cells in 16 clusters, one CUBIC flow per cluster plus aggregate
// background (the bench_shard scenario); an operation is one of kScenarios
// such cities, one per sub-seed. No PBE client runs, so MAC, the event
// loop, PDCCH placement and the 1 ms shard barriers do all the work: a
// decode or estimator optimisation must leave this workload unchanged.
//
// The timed operations step the 16 shard domains with one worker. With
// two, the barrier's worker wake-ups put scheduler stalls of several ms
// into more than 1% of the steps in some runs on a shared 4-vCPU host, so
// their p99 measured the host rather than the program. Every run also
// simulates each city with two shard workers and checks that each flow's
// statistics are identical, as the sharding contract promises; the traced
// run times two-worker rounds for the shard speed-up.
#include <algorithm>
#include <memory>

#include "check/check.h"
#include "perfbench.h"
#include "sim/scenario.h"

namespace perfbench {
namespace {

using namespace pbecc;

constexpr int kCells = 64;
constexpr int kCellsPerCluster = 4;
constexpr int kClusters = kCells / kCellsPerCluster;
constexpr int kShards = 1;
constexpr int kParallelShards = 2;
constexpr util::Duration kLength = 1500 * util::kMillisecond;
constexpr int kScenarios = 6;

// The pinned city, at two workers, whatever --seed is. Its results must
// not change.
constexpr std::uint64_t kPinnedSeed = 1;
constexpr double kPinnedGoodputMbps = 1235.9579814669009;
constexpr double kPinnedDelayP95Ms = 180.44439999999992;
constexpr std::uint64_t kPinnedEvents = 582869;

struct FlowResult {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  double tput_mbps = 0;
  double p95_delay_ms = 0;

  bool operator==(const FlowResult&) const = default;
};

struct Outcome {
  OpTime time;
  double cpu_s = 0;
  std::vector<FlowResult> flows;
  double goodput_mbps = 0;  // summed over the city's flows
  double delay_p95_ms = 0;  // over every packet of the city's flows
  SimCounts sim;
};

std::unique_ptr<sim::Scenario> build(std::uint64_t seed, int shards) {
  sim::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.shards = shards;
  cfg.cells.clear();
  for (int c = 0; c < kCells; ++c) {
    sim::CellSpec cell;
    cell.control_users_per_subframe = 0.2;
    cell.cluster = c / kCellsPerCluster;
    cfg.cells.push_back(cell);
  }
  auto s = std::make_unique<sim::Scenario>(cfg);
  for (int cl = 0; cl < kClusters; ++cl) {
    const auto first = static_cast<std::size_t>(cl * kCellsPerCluster);
    sim::UeSpec ue;
    ue.id = static_cast<mac::UeId>(cl + 1);
    ue.cell_indices = {first, first + 1};
    s->add_ue(ue);
    sim::FlowSpec fs;
    fs.algo = "cubic";
    fs.ue = ue.id;
    fs.stop = kLength;
    s->add_flow(fs);
    sim::AggregateBackgroundSpec agg;
    agg.cell_index = first + 2;
    agg.traffic.sessions_per_sec = 40;
    s->add_background_aggregate(agg);
  }
  return s;
}

Outcome run_once(std::uint64_t seed, int shards, Tracer& tr) {
  const std::uint32_t id_step = tr.intern("sim.step");
  Outcome out;
  const SimCounts counts_before = SimCounts::now();
  const std::int64_t t0 = now_ns();
  const auto scenario = build(seed, shards);
  sim::Scenario& s = *scenario;
  const std::int64_t t1 = now_ns();
  out.time.setup_ns = t1 - t0;
  const double cpu0 = process_cpu_s();
  out.time.tick_us.reserve(static_cast<std::size_t>(kLength / util::kMillisecond));
  for (util::Time t = util::kMillisecond; t <= kLength; t += util::kMillisecond) {
    const std::int64_t a = now_ns();
    tr.open(id_step);
    s.run_until(t);
    tr.close();
    out.time.tick_us.push_back(static_cast<double>(now_ns() - a) / 1e3);
  }
  out.time.wall_ns = now_ns() - t1;
  out.time.cell_ticks = static_cast<std::uint64_t>(kCells) * out.time.tick_us.size();
  out.cpu_s = process_cpu_s() - cpu0;
  out.sim = SimCounts::now() - counts_before;

  util::SampleSet delays;
  for (std::size_t f = 0; f < s.num_flows(); ++f) {
    sim::FlowStats& st = s.stats(static_cast<int>(f));
    st.finish(kLength);
    out.flows.push_back(FlowResult{st.packets(), st.bytes(), st.avg_tput_mbps(),
                                   st.p95_delay_ms()});
    out.goodput_mbps += st.avg_tput_mbps();
    for (const double d : st.delays_ms().samples()) delays.add(d);
  }
  out.delay_p95_ms = delays.percentile(95);
  return out;
}

}  // namespace

Report run_city(const Options& opt) {
  Report r;
  HostSpeed host;
  Tracer untraced(false);
  const Outcome pinned = run_once(kPinnedSeed, kParallelShards, untraced);
  check_pinned(r, "city pinned goodput", pinned.goodput_mbps, kPinnedGoodputMbps);
  check_pinned(r, "city pinned p95 delay", pinned.delay_p95_ms, kPinnedDelayP95Ms);
  check_pinned(r, "city pinned events", pinned.sim.events_dispatched, kPinnedEvents);

  // The two-worker reference every timed operation must reproduce; it is
  // also the warm-up before timing.
  const std::vector<std::uint64_t> seeds = sub_seeds(opt.seed, kScenarios);
  std::vector<Outcome> refs;
  std::vector<double> goodputs, delay_p95s;
  SimCounts sim_counts;
  for (const std::uint64_t seed : seeds) {
    refs.push_back(run_once(seed, kParallelShards, untraced));
    goodputs.push_back(refs.back().goodput_mbps);
    delay_p95s.push_back(refs.back().delay_p95_ms);
    sim_counts = sim_counts + refs.back().sim;
  }

  std::vector<double> cpu_per_wall;
  const auto op = [&](int shards) {
    return [&, shards](std::size_t k, int round, Tracer& tr) {
      Outcome o = run_once(seeds[k], shards, tr);
      const std::string what = "city round " + std::to_string(round) + " scenario " +
                               std::to_string(k) + " at " + std::to_string(shards) +
                               " shards";
      r.check(o.flows == refs[k].flows,
              what + ": flow statistics differ between shard counts");
      r.check(o.sim == refs[k].sim, what + " did different work");
      if (shards == kParallelShards) {
        cpu_per_wall.push_back(o.cpu_s / (static_cast<double>(o.time.wall_ns) / 1e9));
      }
      return std::move(o.time);
    };
  };
  Timings timings(host);
  timings.spans_path = opt.spans_path;
  timings.run(opt.seconds, opt.trace, seeds.size(), op(kShards));
  // The traced run's shard speed-up: untraced two-worker rounds.
  Timings two(host);
  if (opt.trace) two.run(std::max(1, opt.seconds / 4), false, seeds.size(), op(kParallelShards));
  r.check(check::violations() == 0,
          "check::violations() = " + std::to_string(check::violations()));
  timings.report(r);
  report_results(r, goodputs, delay_p95s);

  if (opt.trace) {
    const Ledger round = report_trace(r, "city", host, {&timings});
    const auto n = static_cast<std::size_t>(timings.traced_rounds());
    r.set("sim.step_ms", round.inclusive("sim.step"), n);
    r.set("sim.other_ms", round.self("sim.step"), n);
    r.set("sim.step_p50_us", median(timings.traced_p50s()), timings.traced_ticks());
    r.set("sim.step_p99_us", median(timings.traced_p99s()), timings.traced_ticks());
    r.set("sim.us_per_event",
          round.self("sim.step") * 1e3 / static_cast<double>(sim_counts.events_dispatched),
          n);
    r.set("shard.speedup", timings.round_wall_s(false) / two.round_wall_s(false),
          cpu_per_wall.size());
    r.set("shard.cpu_per_wall", median(cpu_per_wall), cpu_per_wall.size());
    report_counts(r, DecodeCounts{}, sim_counts);
  }
  return r;
}

}  // namespace perfbench
