// Micro-benchmarks (google-benchmark): the per-subframe costs that
// determine whether PBE-CC's measurement module can run at line rate —
// the paper's decoder sustains six cells per PC with <40% per-core load.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_common.h"
#include "decoder/blind_decoder.h"
#include "sim/location.h"
#include "decoder/user_tracker.h"
#include "mac/scheduler.h"
#include "pbe/capacity_estimator.h"
#include "pbe/rate_translator.h"
#include "phy/convolutional.h"
#include "phy/pdcch.h"
#include "util/crc.h"

using namespace pbecc;

namespace {

phy::PdcchSubframe busy_subframe(int n_msgs) {
  phy::CellConfig cell{1, 20.0};
  phy::PdcchBuilder b(cell, 0);
  for (int i = 0; i < n_msgs; ++i) {
    phy::Dci d;
    d.rnti = static_cast<phy::Rnti>(0x100 + i);
    d.format = static_cast<phy::DciFormat>(i % phy::kNumDciFormats);
    d.prb_start = 0;
    d.n_prbs = 10;
    const bool mimo = d.format == phy::DciFormat::kFormat2 ||
                      d.format == phy::DciFormat::kFormat2A;
    d.mcs = {10, mimo ? 2 : 1};
    b.add(d, 2);
  }
  return std::move(b).build();
}

void BM_BlindDecodeSubframe(benchmark::State& state) {
  const auto sf = busy_subframe(static_cast<int>(state.range(0)));
  const phy::CellConfig cell{1, 20.0};
  decoder::BlindDecoder dec{cell};
  for (auto _ : state) {
    // Drop the span memo: decoding the same subframe again would otherwise
    // answer every candidate from it and time only the memo probes.
    dec.reconfigure(cell);
    benchmark::DoNotOptimize(dec.decode(sf));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("subframes decoded; 1000/s = one cell in real time");
}
BENCHMARK(BM_BlindDecodeSubframe)->Arg(1)->Arg(4)->Arg(16);

// PDCCH synthesis: fill a 20 MHz control region with DCIs at one
// aggregation level (a fresh builder per region).
void BM_PdcchBuilderAdd(benchmark::State& state) {
  const phy::CellConfig cell{1, 20.0};
  const int al = static_cast<int>(state.range(0));
  phy::Dci d;
  d.format = phy::DciFormat::kFormat1;
  d.n_prbs = 10;
  d.mcs = {10, 1};
  std::int64_t placed = 0;
  for (auto _ : state) {
    phy::PdcchBuilder b(cell, 0);
    for (int i = 0; i < cell.n_cces() / al; ++i) {
      d.rnti = static_cast<phy::Rnti>(0x100 + i);
      placed += b.add(d, al) ? 1 : 0;
    }
    benchmark::DoNotOptimize(std::move(b).build());
  }
  state.SetItemsProcessed(placed);
  state.SetLabel("items = DCIs placed");
}
BENCHMARK(BM_PdcchBuilderAdd)->Arg(1)->Arg(8);

// Monitor-side noise over a 20 MHz control region at 1% BER: one RNG draw
// per bit.
void BM_ApplyBitNoise(benchmark::State& state) {
  auto sf = busy_subframe(4);
  util::Rng rng{1};
  for (auto _ : state) {
    phy::apply_bit_noise(sf, 0.01, rng);
    benchmark::DoNotOptimize(sf.bits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sf.bits.size()));
  state.SetLabel("items = control-region bits");
}
BENCHMARK(BM_ApplyBitNoise);

// One blind-decode candidate's Viterbi run (the srsLTE-equivalent path):
// a format-1 DCI rate-matched to an aggregation level's region, decoded
// with the blind decoder's 85% abort floor. At AL1 the block is punctured
// past rate 1/2, where the blind decoder would skip the format, but the
// trellis walk costs the same.
struct ViterbiCandidate {
  std::size_t msg_bits = 0;
  util::BitVec block;
  std::int32_t floor = 0;
  util::BitVec decoded;

  explicit ViterbiCandidate(std::size_t al) {
    phy::Dci d;
    d.rnti = 0x222;
    d.format = phy::DciFormat::kFormat1;
    d.n_prbs = 30;
    d.mcs = {10, 1};
    const auto msg = phy::encode_dci(d);
    msg_bits = msg.size();
    block = phy::rate_match(phy::conv_encode(msg), al * phy::kBitsPerCce);
    floor = static_cast<std::int32_t>(2 * ((85 * block.size() + 99) / 100) -
                                      block.size());
  }

  phy::ConvDecodeResult decode() {
    return phy::conv_decode(block, msg_bits, decoded, nullptr, floor);
  }
};

void BM_ConvolutionalDecode(benchmark::State& state) {
  ViterbiCandidate vc(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto r = vc.decode();
    benchmark::DoNotOptimize(r);
    benchmark::DoNotOptimize(vc.decoded);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("items = Viterbi decodes, one candidate each");
}
BENCHMARK(BM_ConvolutionalDecode)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_DciEncode(benchmark::State& state) {
  phy::Dci d;
  d.rnti = 0x1234;
  d.format = phy::DciFormat::kFormat2;
  d.n_prbs = 50;
  d.mcs = {12, 2};
  for (auto _ : state) benchmark::DoNotOptimize(phy::encode_dci(d));
}
BENCHMARK(BM_DciEncode);

void BM_Crc16(benchmark::State& state) {
  util::BitVec bits;
  for (int i = 0; i < 64; ++i) bits.push_bit((i * 7 % 3) == 0);
  for (auto _ : state) benchmark::DoNotOptimize(util::crc16(bits));
}
BENCHMARK(BM_Crc16);

void BM_UserTrackerSubframe(benchmark::State& state) {
  decoder::UserTracker tracker{100};
  std::vector<phy::Dci> msgs;
  for (int i = 0; i < 6; ++i) {
    phy::Dci d;
    d.rnti = static_cast<phy::Rnti>(0x100 + i);
    d.format = phy::DciFormat::kFormat1;
    d.n_prbs = 12;
    d.mcs = {10, 1};
    msgs.push_back(d);
  }
  std::int64_t sf = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.on_subframe(sf++, msgs, 0x100));
  }
}
BENCHMARK(BM_UserTrackerSubframe);

void BM_CapacityEstimatorUpdate(benchmark::State& state) {
  pbe::CapacityEstimator est;
  decoder::CellObservation o;
  o.cell = 1;
  o.cell_prbs = 100;
  o.summary.own_prbs = 30;
  o.summary.own_bits_per_prb = 1000;
  o.summary.idle_prbs = 20;
  o.summary.data_users = 3;
  std::vector<decoder::CellObservation> obs = {o, o, o};
  obs[1].cell = 2;
  obs[2].cell = 3;
  util::Time t = 0;
  for (auto _ : state) {
    t += util::kSubframe;
    for (auto& x : obs) x.sf_index = t / util::kSubframe;
    est.on_observations(t, obs, nullptr);
    benchmark::DoNotOptimize(est.available_capacity(t));
  }
  state.SetLabel("3-cell estimator update + Eqn 3 readout per iteration");
}
BENCHMARK(BM_CapacityEstimatorUpdate);

void BM_RateTranslatorLookup(benchmark::State& state) {
  pbe::RateTranslator tr;
  double cp = 10000;
  for (auto _ : state) {
    cp = cp > 190000 ? 10000 : cp + 37;
    benchmark::DoNotOptimize(tr.to_transport(cp, 1e-6));
  }
  state.SetLabel("Eqn 5 translation via LUT (paper speeds this up the same way)");
}
BENCHMARK(BM_RateTranslatorLookup);

void BM_FairShareScheduler(benchmark::State& state) {
  mac::FairShareScheduler sched;
  std::vector<mac::SchedRequest> reqs;
  for (int u = 0; u < static_cast<int>(state.range(0)); ++u) {
    reqs.push_back(mac::SchedRequest{static_cast<mac::UeId>(u + 1),
                                     50000 + u * 1000, 1000.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.allocate(100, reqs));
  }
}
BENCHMARK(BM_FairShareScheduler)->Arg(2)->Arg(8)->Arg(32);

}  // namespace

// With --json <path> the binary runs a machine-readable throughput mode
// instead of google-benchmark: M scenario replications fanned out on the
// pool (the CI regression gate's primary signal) plus a Viterbi
// micro-record, written through the shared Reporter. Without --json it
// falls through to the normal google-benchmark suite.
int main(int argc, char** argv) {
  bench::Reporter rep("bench_micro", argc, argv);
  if (rep.json_enabled()) {
    constexpr std::size_t kReps = 8;
    bench::WallTimer wt;
    const auto results = rep.pool().parallel_map(kReps, [&](std::size_t j) {
      return sim::run_location(sim::location(static_cast<int>(j % 4)), "pbe",
                               4 * util::kSecond);
    });
    std::uint64_t sfs = 0, attempts = 0;
    for (const auto& r : results) {
      sfs += r.sim_cell_subframes;
      attempts += r.decode_candidates;
    }
    rep.add("scenario_8rep", wt.ms(),
            static_cast<double>(sfs) / (wt.ms() / 1000.0), attempts);

    // Viterbi decodes of an AL4 candidate; subframes_per_sec =
    // decodes/sec here.
    ViterbiCandidate vc(4);
    constexpr std::uint64_t kDecodes = 2000;
    bench::WallTimer vt;
    for (std::uint64_t i = 0; i < kDecodes; ++i) {
      const auto r = vc.decode();
      benchmark::DoNotOptimize(r);
      benchmark::DoNotOptimize(vc.decoded);
      benchmark::ClobberMemory();
    }
    rep.add("viterbi_al4", vt.ms(),
            static_cast<double>(kDecodes) / (vt.ms() / 1000.0), kDecodes);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
