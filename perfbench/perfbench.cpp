#include "perfbench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>
#include <queue>
#include <unordered_map>

#include "decoder/blind_decoder.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

SimCounts SimCounts::now() {
  auto& reg = pbecc::obs::Registry::instance();
  return SimCounts{reg.counter("net.events_dispatched").value(),
                   reg.counter("net.packets_sent").value(),
                   reg.counter("mac.tbs_sent").value(),
                   reg.counter("mac.harq_retx").value(),
                   reg.counter("mac.prbs_aggregate").value()};
}

SimCounts SimCounts::operator-(const SimCounts& o) const {
  return SimCounts{events_dispatched - o.events_dispatched,
                   packets_sent - o.packets_sent, tbs_sent - o.tbs_sent,
                   harq_retx - o.harq_retx, prbs_aggregate - o.prbs_aggregate};
}

SimCounts SimCounts::operator+(const SimCounts& o) const {
  return SimCounts{events_dispatched + o.events_dispatched,
                   packets_sent + o.packets_sent, tbs_sent + o.tbs_sent,
                   harq_retx + o.harq_retx, prbs_aggregate + o.prbs_aggregate};
}

DecodeCounts DecodeCounts::operator+(const DecodeCounts& o) const {
  return DecodeCounts{candidates_lte + o.candidates_lte,
                      candidates_nr + o.candidates_nr, decoded + o.decoded,
                      memo_hits + o.memo_hits, early_aborts + o.early_aborts,
                      lane_batches + o.lane_batches};
}

void DecodeCounts::add(const pbecc::decoder::BlindDecoder& dec) {
  const auto& st = dec.stats();
  (dec.cell().rat == pbecc::phy::Rat::kNr ? candidates_nr : candidates_lte) +=
      st.candidates_tried;
  decoded += st.messages_decoded;
  memo_hits += st.memo_hits;
  early_aborts += st.early_aborts;
  lane_batches += st.lane_batches;
}

void report_counts(Report& r, const DecodeCounts& d, const SimCounts& s) {
  const auto ratio = [&](std::uint64_t num) {
    return d.candidates() == 0 ? 0.0
                               : static_cast<double>(num) /
                                     static_cast<double>(d.candidates());
  };
  r.set("decoder.candidates", static_cast<double>(d.candidates()));
  r.set("decoder.candidates.lte", static_cast<double>(d.candidates_lte));
  r.set("decoder.candidates.nr", static_cast<double>(d.candidates_nr));
  r.set("decoder.yield", ratio(d.decoded));
  r.set("decoder.memo_hit_ratio", ratio(d.memo_hits));
  r.set("decoder.early_abort_ratio", ratio(d.early_aborts));
  r.set("decoder.lane_batches", static_cast<double>(d.lane_batches));
  r.set("net.events_dispatched", static_cast<double>(s.events_dispatched));
  r.set("net.packets_sent", static_cast<double>(s.packets_sent));
  r.set("mac.tbs_sent", static_cast<double>(s.tbs_sent));
  r.set("mac.harq_retx", static_cast<double>(s.harq_retx));
  r.set("mac.prbs_aggregate", static_cast<double>(s.prbs_aggregate));
}

void check_pinned(Report& r, const std::string& what, double got, double want) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", got);
  r.check(got == want, what + " changed: " + buf);
}

void check_pinned(Report& r, const std::string& what, std::uint64_t got,
                  std::uint64_t want) {
  r.check(got == want, what + " changed: " + std::to_string(got));
}

void report_results(Report& r, const std::vector<double>& goodputs,
                    const std::vector<double>& delay_p95s) {
  r.set("goodput_mbps", median(goodputs), goodputs.size());
  r.set("delay_p95_ms", median(delay_p95s), delay_p95s.size());
}

std::vector<std::uint64_t> sub_seeds(std::uint64_t seed, int n) {
  pbecc::util::Rng rng(seed);
  std::vector<std::uint64_t> out;
  for (int i = 0; i < n; ++i) out.push_back(rng.next_u64());
  return out;
}

double peak_rss_mib() {
  // VmHWM belongs to this program's address space. getrusage's ru_maxrss
  // would not do: Linux carries it over exec, so a run started from a
  // larger parent (python3 run.py) would report the parent's peak.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

volatile std::uint64_t g_calibration_sink = 0;

void calibration_kernel() {
  std::uint64_t x = 88172645463325252ULL;  // xorshift64, fixed seed
  const auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t sum = 0;
  // Event-queue churn, as an event loop's.
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> heap;
  for (int i = 0; i < 20000; ++i) {
    heap.push(rnd() % 1000000);
    if (heap.size() > 2000) {
      sum += heap.top();
      heap.pop();
    }
  }
  // Hash-map churn, as per-user state lookups.
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  map.reserve(4096);
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t key = rnd() % 8192;
    const auto it = map.find(key);
    if (it == map.end()) {
      map.emplace(key, i);
    } else {
      sum += it->second;
      if (i % 2 == 1) map.erase(it);
    }
  }
  // Add-compare-select over 64 states in 16 lockstep lanes, as the batched
  // Viterbi decoder's. Metrics grow by at most 8 a step: no overflow.
  constexpr int kStates = 64;
  constexpr int kLanes = 16;
  std::vector<std::int16_t> metric(kStates * kLanes, 0);
  std::vector<std::int16_t> next(kStates * kLanes);
  for (int t = 0; t < 1200; ++t) {
    const std::uint64_t bits = rnd();
    std::int16_t branch[kLanes];
    for (int l = 0; l < kLanes; ++l) {
      branch[l] = static_cast<std::int16_t>(static_cast<int>((bits >> (4 * l)) & 15) - 8);
    }
    for (int st = 0; st < kStates; ++st) {
      const std::int16_t* a = &metric[static_cast<std::size_t>((st >> 1) * kLanes)];
      const std::int16_t* b = &metric[static_cast<std::size_t>(((st >> 1) + kStates / 2) * kLanes)];
      std::int16_t* out = &next[static_cast<std::size_t>(st * kLanes)];
      for (int l = 0; l < kLanes; ++l) {
        out[l] = static_cast<std::int16_t>(std::max(a[l] + branch[l], b[l] - branch[l]));
      }
    }
    std::swap(metric, next);
  }
  sum += static_cast<std::uint64_t>(metric[5] + metric[1000]);
  // LEB128 varints written and parsed, as a trace writer's and reader's.
  std::vector<std::uint8_t> bytes;
  bytes.reserve(1 << 18);
  for (int i = 0; i < 14000; ++i) {
    std::uint64_t v = rnd() >> (rnd() & 63);
    for (; v >= 0x80; v >>= 7) bytes.push_back(static_cast<std::uint8_t>(v | 0x80));
    bytes.push_back(static_cast<std::uint8_t>(v));
  }
  for (std::size_t i = 0; i < bytes.size();) {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t byte = bytes[i++];
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if (byte < 0x80) break;
    }
    sum += v;
  }
  std::vector<double> v(8192);
  for (double& d : v) d = static_cast<double>(rnd() % 100000);
  std::sort(v.begin(), v.end());
  sum += static_cast<std::uint64_t>(v[100]);
  g_calibration_sink = g_calibration_sink + sum;
}

}  // namespace

double calibration_ms() {
  // The first pass brings the kernel's memory back into the caches, so the
  // timed one does not depend on what the operation before it touched.
  calibration_kernel();
  const std::int64_t t0 = now_ns();
  calibration_kernel();
  return static_cast<double>(now_ns() - t0) / 1e6;
}

double HostSpeed::next() {
  const double before = samples_ms_.back();
  samples_ms_.push_back(calibration_ms());
  return kReferenceCalibrationMs / ((before + samples_ms_.back()) / 2.0);
}

void Timings::add(const OpTime& t, double scale, bool traced) {
  const double wall_s = static_cast<double>(t.wall_ns) / 1e9 * scale;
  wall_s_[traced] += wall_s;
  if (traced) {
    Ledger l = make_ledger(on_.spans(), on_.names(), t.wall_ns);
    l.scale(scale);
    ledger_.merge(l);
    if (!t.tick_us.empty()) {
      traced_p50s_.push_back(percentile(t.tick_us, 50) * scale);
      traced_p99s_.push_back(percentile(t.tick_us, 99) * scale);
      traced_ticks_ += t.tick_us.size();
    }
    return;
  }
  rates_.push_back(static_cast<double>(t.cell_ticks) / wall_s);
  if (!t.tick_us.empty()) {
    p50s_.push_back(percentile(t.tick_us, 50) * scale);
    p99s_.push_back(percentile(t.tick_us, 99) * scale);
    ticks_ += t.tick_us.size();
    min_op_ticks_ = std::min(min_op_ticks_, t.tick_us.size());
  }
  if (t.setup_ns >= 0) setups_.push_back(static_cast<double>(t.setup_ns) / 1e9 * scale);
}

void Timings::report(Report& r) const {
  r.check(highest_supported_percentile(min_op_ticks_) >= 99,
          "an operation has too few ticks for a p99");
  std::fprintf(stderr, "host: calibration kernel %.3f ms (median of %zu), reference %.1f ms\n",
               median(host_.samples_ms()), host_.samples_ms().size(),
               kReferenceCalibrationMs);
  r.set("cell_ticks_per_s", median(rates_), rates_.size());
  r.set("batch_p50_us", median(p50s_), ticks_);
  r.set("batch_p99_us", median(p99s_), ticks_);
  if (!setups_.empty()) r.set("setup_s", median(setups_), setups_.size());
}

Ledger Timings::round_ledger() const {
  Ledger out = ledger_;
  out.scale(1.0 / rounds_[1]);
  return out;
}

double Timings::round_wall_s(bool traced) const {
  return wall_s_[traced] / rounds_[traced];
}

Ledger report_trace(Report& r, const std::string& workload, const HostSpeed& host,
                    std::initializer_list<const Timings*> passes) {
  Ledger round;
  double on = 0;
  double off = 0;
  std::size_t rounds = 0;
  for (const Timings* t : passes) {
    round.merge(t->round_ledger());
    on += t->round_wall_s(true);
    off += t->round_wall_s(false);
    rounds += static_cast<std::size_t>(t->traced_rounds());
  }
  r.set("unattributed_ms", round.unattributed_ms, rounds);
  r.set("trace.overhead_ratio", on / off - 1.0, rounds);
  r.set("host.calibration_ms", median(host.samples_ms()), host.samples_ms().size());
  r.check(std::abs(round.closure_ms() - round.wall_ms) < 1e-6 * round.wall_ms,
          workload + " ledger does not close");
  return round;
}

}  // namespace perfbench
