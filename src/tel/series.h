// Typed, columnar time series for run telemetry (DESIGN.md §12).
//
// A Recorder holds named series — each a column of (sim-time, value)
// samples, either f64 (rates, capacities, confidence) or i64 (counters,
// state enums, queue depths). Series are ring-bounded so an unbounded soak
// cannot grow memory without limit, and everything about them is
// deterministic: names sort lexicographically, values are appended in
// simulation order, and the digest() is a byte-exact FNV-1a over the whole
// recording — the instrument behind the record→replay and thread-count
// byte-identity checks.
//
// Timestamps are always simulation time (util::Time, microseconds). Never
// wall clock: telemetry must be byte-stable across reruns of the same
// seed, and wall-clock stamps would break that (see DESIGN.md §12).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.h"

namespace pbecc::tel {

// Bumped whenever the series schema (names, units, encodings) changes
// incompatibly; stamped into exports and the .tsv.pbt header so diff
// tooling can refuse cross-schema comparisons instead of mis-joining.
inline constexpr std::uint32_t kSchemaVersion = 1;

enum class ValueKind : std::uint8_t { kF64 = 0, kI64 = 1 };

struct Series {
  std::string name;
  std::string unit;  // free-form: "bits/sf", "bps", "bytes", "state", ...
  ValueKind kind = ValueKind::kF64;
  std::vector<util::Time> t;
  std::vector<double> f64;        // parallel to t when kind == kF64
  std::vector<std::int64_t> i64;  // parallel to t when kind == kI64

  std::size_t size() const { return t.size(); }
  // Uniform read access for analysis code (i64 widened losslessly for the
  // magnitudes recorded here).
  double value(std::size_t i) const {
    return kind == ValueKind::kF64 ? f64[i] : static_cast<double>(i64[i]);
  }
};

class Recorder {
 public:
  // `max_samples_per_series`: ring bound. When a series fills up, its
  // oldest half is dropped in one deterministic step (amortised O(1) per
  // sample). The default holds ~3 hours of 10 ms samples.
  explicit Recorder(std::size_t max_samples_per_series = 1u << 20);

  // Run-level metadata (scenario name, seed, interval, fault profile...).
  // Keys are stored sorted; values must not contain newlines. Sim-clock
  // only — callers must never stamp wall-clock times here.
  void set_meta(std::string_view key, std::string_view value);
  const std::map<std::string, std::string>& meta() const { return meta_; }

  // Append one sample. The (name, unit, kind) triple is fixed by the first
  // append; later appends with a conflicting kind are ignored (and
  // counted) rather than corrupting the column.
  void append_f64(std::string_view name, std::string_view unit, util::Time t,
                  double v);
  void append_i64(std::string_view name, std::string_view unit, util::Time t,
                  std::int64_t v);

  const std::map<std::string, Series, std::less<>>& series() const {
    return series_;
  }
  const Series* find(std::string_view name) const;
  std::size_t total_samples() const;
  std::uint64_t kind_conflicts() const { return kind_conflicts_; }
  std::size_t max_samples_per_series() const { return max_samples_; }

  // Order-sensitive FNV-1a over meta + every series (name, unit, kind,
  // timestamps, value bit patterns). One 64-bit compare decides
  // byte-identity of two recordings.
  std::uint64_t digest() const;

  // Deterministic exports: sorted keys, fixed field order, %.17g doubles
  // (round-trippable). JSON shape:
  //   {"schema_version":1,"meta":{...},"series":[{"name":...,"unit":...,
  //    "kind":"f64","t":[...],"v":[...]}, ...]}
  std::string to_json() const;
  // Long/tidy CSV: header "series,unit,t_us,value" then one row per sample.
  std::string to_csv() const;

 private:
  Series& series_for(std::string_view name, std::string_view unit,
                     ValueKind kind, bool& kind_ok);

  std::size_t max_samples_;
  std::map<std::string, Series, std::less<>> series_;
  std::map<std::string, std::string> meta_;
  std::uint64_t kind_conflicts_ = 0;
};

}  // namespace pbecc::tel
