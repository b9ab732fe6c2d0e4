// Shared pieces of the benchmark's workloads: run options, the metric sheet
// a run reports, host-speed calibration, and the timed rounds every
// workload runs the same way.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"

namespace pbecc::decoder {
class BlindDecoder;
}  // namespace pbecc::decoder

namespace perfbench {

// Longest --seconds accepted: with a run's set-up, the overrun of its last
// round and a traced run's extra passes it stays inside run.py's timeout.
inline constexpr int kMaxSeconds = 120;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  // Traced runs write the last traced round's spans here ("" = nowhere).
  std::string spans_path;
  // Scratch files (the replay_nr recordings) go here.
  std::string work_dir = ".";
};

struct Metric {
  double value = 0;
  std::size_t samples = 0;  // observations behind the value
};

// What one run measured and checked. A failed check is a failed operation.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, std::size_t samples = 1) {
    metrics[name] = Metric{value, samples};
  }
};

// The simulator's work counts, read from the obs registry. The registry is
// process-wide, so an operation's counts are the difference of two reads.
struct SimCounts {
  std::uint64_t events_dispatched = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t tbs_sent = 0;
  std::uint64_t harq_retx = 0;
  std::uint64_t prbs_aggregate = 0;

  static SimCounts now();
  SimCounts operator-(const SimCounts& o) const;
  SimCounts operator+(const SimCounts& o) const;
  bool operator==(const SimCounts&) const = default;
};

// Blind-decode work summed over a set of decoders.
struct DecodeCounts {
  std::uint64_t candidates_lte = 0;
  std::uint64_t candidates_nr = 0;
  std::uint64_t decoded = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t early_aborts = 0;
  std::uint64_t lane_batches = 0;

  std::uint64_t candidates() const { return candidates_lte + candidates_nr; }
  void add(const pbecc::decoder::BlindDecoder& dec);
  DecodeCounts operator+(const DecodeCounts& o) const;
  bool operator==(const DecodeCounts&) const = default;
};

// Sets the per-layer count rows every workload reports.
void report_counts(Report& r, const DecodeCounts& d, const SimCounts& s);

// Every workload also runs one pinned scenario that does not depend on
// --seed and checks its congestion-control results against values pinned
// here, so a change to those results fails the run. A failure prints the
// value the program gave.
void check_pinned(Report& r, const std::string& what, double got, double want);
void check_pinned(Report& r, const std::string& what, std::uint64_t got,
                  std::uint64_t want);

// Sets goodput_mbps and delay_p95_ms: medians over the run's scenarios.
void report_results(Report& r, const std::vector<double>& goodputs,
                    const std::vector<double>& delay_p95s);

// Process-wide peak resident set, MiB.
double peak_rss_mib();
// CPU time of every thread of the process, seconds.
double process_cpu_s();

// Seeds of a run's inputs: the first `n` draws of util::Rng(seed). One
// scenario's results swing with its seed by far more than a benchmark bound
// (the background users' channels are drawn once per seed), so every run
// simulates several and reports their aggregate.
std::vector<std::uint64_t> sub_seeds(std::uint64_t seed, int n);

// --- Host speed ---
//
// Other tenants of a shared host slow the program by up to 1.8x for
// minutes at a time, more than any bound a benchmark can afford. A fixed
// kernel of the benchmark's own (event-heap and hash-map churn, a
// lane-major add-compare-select loop, varint parsing, a sort: the kinds of
// work the library does), timed between every two operations, slows with
// them. Every time a run reports is scaled by kReferenceCalibrationMs over
// the mean of the kernel's two samples around the operation it was taken
// in, so it reads as on a host that runs the kernel in
// kReferenceCalibrationMs, about its time on a quiet 4-vCPU Xeon VM. The
// kernel is not the library's code, so a faster library moves the scaled
// times exactly as the raw ones.
inline constexpr double kReferenceCalibrationMs = 3.0;

// Runs the kernel twice and returns the wall time of the second pass, ms.
double calibration_ms();

class HostSpeed {
 public:
  HostSpeed() { samples_ms_.push_back(calibration_ms()); }

  // Takes a sample and returns the scale of the operation since the
  // previous one.
  double next();
  const std::vector<double>& samples_ms() const { return samples_ms_; }

 private:
  std::vector<double> samples_ms_;
};

// What one operation (one scenario run) measured, in raw wall time.
struct OpTime {
  std::int64_t wall_ns = 0;
  std::uint64_t cell_ticks = 0;  // LTE subframes plus NR slots
  std::vector<double> tick_us;   // wall time of each 1 ms master tick
  std::int64_t setup_ns = -1;    // scenario construction, if the op builds one
};

// The operations of a run, timed in rounds (every scenario once per round)
// and scaled to the reference host speed.
class Timings {
 public:
  explicit Timings(HostSpeed& host) : host_(host) {}

  // Where traced rounds write their last operation's spans ("" = nowhere).
  std::string spans_path;

  // Runs rounds of op(k, round, tracer) -> OpTime for k = 0 .. n_ops - 1
  // until `seconds` of wall time have passed, and at least one round. With
  // `traced`, rounds alternate untraced and traced (at least one of each).
  template <class Op>
  void run(int seconds, bool traced, std::size_t n_ops, Op&& op) {
    const std::int64_t t0 = now_ns();
    for (int round = 0;; ++round) {
      if (round >= (traced ? 2 : 1) &&
          now_ns() - t0 >= std::int64_t{seconds} * 1'000'000'000) {
        return;
      }
      const bool trace_round = traced && round % 2 == 1;
      for (std::size_t k = 0; k < n_ops; ++k) {
        on_.clear();
        const OpTime t = op(k, round, trace_round ? on_ : off_);
        add(t, host_.next(), trace_round);
        if (trace_round && k + 1 == n_ops && !spans_path.empty()) {
          on_.write_tsv(spans_path);
        }
      }
      ++rounds_[trace_round];
    }
  }

  // cell_ticks_per_s, batch_p50_us, batch_p99_us and, when the operations
  // build their scenario, setup_s: medians over the untraced operations.
  void report(Report& r) const;

  // One traced round's ledger: the mean over the traced rounds.
  Ledger round_ledger() const;
  // Mean wall time of one untraced or traced round, seconds.
  double round_wall_s(bool traced) const;
  // Per traced operation, the p50 and p99 of its ticks, microseconds.
  const std::vector<double>& traced_p50s() const { return traced_p50s_; }
  const std::vector<double>& traced_p99s() const { return traced_p99s_; }
  std::size_t traced_ticks() const { return traced_ticks_; }
  int traced_rounds() const { return rounds_[1]; }

 private:
  void add(const OpTime& t, double scale, bool traced);

  HostSpeed& host_;
  Tracer off_{false};
  Tracer on_{true};
  int rounds_[2] = {0, 0};
  double wall_s_[2] = {0, 0};
  std::vector<double> rates_, p50s_, p99s_, setups_;
  std::size_t ticks_ = 0;
  std::size_t min_op_ticks_ = SIZE_MAX;
  Ledger ledger_;
  std::vector<double> traced_p50s_, traced_p99s_;
  std::size_t traced_ticks_ = 0;
};

// The traced run's shared rows: one traced round of each of `passes`,
// summed, is the ledger; sets unattributed_ms, trace.overhead_ratio (traced
// over untraced wall of those rounds, minus one) and host.calibration_ms,
// checks that the ledger closes, and returns it for the workload's rows.
Ledger report_trace(Report& r, const std::string& workload, const HostSpeed& host,
                    std::initializer_list<const Timings*> passes);

Report run_endpoint(const Options& opt);
Report run_replay_nr(const Options& opt);
Report run_city(const Options& opt);

}  // namespace perfbench
