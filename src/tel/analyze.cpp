#include "tel/analyze.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "util/stats.h"

namespace pbecc::tel {

namespace {

// A truth-series move larger than this fraction between consecutive
// samples is a capacity step.
constexpr double kStepFraction = 0.25;
// The estimate has "tracked" a step once within this fraction of truth.
constexpr double kTrackedFraction = 0.15;
constexpr util::Duration kStepSearchHorizon = 2 * util::kSecond;
// Anomaly: relative error above kAnomalyRel for more than
// kAnomalyMinSamples consecutive joined samples.
constexpr double kAnomalyRel = 0.35;
constexpr std::size_t kAnomalyMinSamples = 8;

// Equal-timestamp inner join of two series (both time-sorted by
// construction). Calls fn(t, va, vb).
template <typename Fn>
void join(const Series& a, const Series& b, Fn&& fn) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a.t[i] < b.t[j]) {
      ++i;
    } else if (b.t[j] < a.t[i]) {
      ++j;
    } else {
      fn(a.t[i], a.value(i), b.value(j));
      ++i;
      ++j;
    }
  }
}

// Cell ids appearing as est.cell<id>.cf_bits_sf or truth.cell<id>.*.
std::set<std::string> cell_ids(const Recorder& rec) {
  std::set<std::string> ids;
  for (const auto& [name, s] : rec.series()) {
    for (const std::string_view prefix : {"est.cell", "truth.cell"}) {
      if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
        continue;
      }
      const std::size_t dot = name.find('.', prefix.size());
      if (dot == std::string::npos || dot == prefix.size()) continue;
      const std::string id = name.substr(prefix.size(), dot - prefix.size());
      if (std::all_of(id.begin(), id.end(),
                      [](char c) { return c >= '0' && c <= '9'; })) {
        ids.insert(id);
      }
    }
  }
  return ids;
}

ErrorStats error_stats(const Series& est, const Series& truth,
                       const AnalyzeConfig& cfg) {
  util::SampleSet abs_err, rel_err;
  join(est, truth, [&](util::Time t, double e, double tr) {
    if (t < cfg.warmup) return;
    if (tr <= 0) return;  // no schedulable capacity: relative error undefined
    const double abs = std::fabs(e - tr);
    abs_err.add(abs);
    rel_err.add(abs / tr);
  });
  ErrorStats out;
  out.n = rel_err.count();
  if (out.n == 0) return out;
  out.p50_abs = abs_err.percentile(50);
  out.p95_abs = abs_err.percentile(95);
  out.p50_rel = rel_err.percentile(50);
  out.p95_rel = rel_err.percentile(95);
  out.mean_rel = rel_err.mean();
  out.max_rel = rel_err.max();
  return out;
}

StepLagStats step_lag(const Series& est, const Series& truth,
                      const AnalyzeConfig& cfg) {
  // Collect the joined samples first; lag measurement walks forward from
  // each detected step.
  std::vector<util::Time> t;
  std::vector<double> e, tr;
  join(est, truth, [&](util::Time tt, double ee, double trr) {
    t.push_back(tt);
    e.push_back(ee);
    tr.push_back(trr);
  });
  StepLagStats out;
  util::SampleSet lags;
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (t[i] < cfg.warmup) continue;
    const double base = std::max(std::fabs(tr[i - 1]), 1.0);
    if (std::fabs(tr[i] - tr[i - 1]) / base < kStepFraction) continue;
    ++out.steps;
    bool tracked = false;
    for (std::size_t j = i; j < t.size() && t[j] - t[i] <= kStepSearchHorizon;
         ++j) {
      if (tr[j] <= 0) continue;
      if (std::fabs(e[j] - tr[j]) / tr[j] <= kTrackedFraction) {
        lags.add(util::to_millis(t[j] - t[i]));
        tracked = true;
        break;
      }
    }
    if (tracked) ++out.tracked;
  }
  if (!lags.empty()) {
    out.mean_lag_ms = lags.mean();
    out.max_lag_ms = lags.max();
  }
  return out;
}

std::vector<Anomaly> find_anomalies(const std::string& cell, const Series& est,
                                    const Series& truth,
                                    const AnalyzeConfig& cfg) {
  std::vector<Anomaly> out;
  Anomaly cur;
  std::size_t run = 0;
  const auto flush = [&](util::Time end) {
    if (run > kAnomalyMinSamples) {
      cur.cell = cell;
      cur.end = end;
      cur.samples = run;
      out.push_back(cur);
    }
    run = 0;
    cur = Anomaly{};
  };
  util::Time last_t = 0;
  join(est, truth, [&](util::Time t, double e, double tr) {
    last_t = t;
    const double rel = tr > 0 ? std::fabs(e - tr) / tr : 0.0;
    if (t >= cfg.warmup && rel > kAnomalyRel) {
      if (run == 0) cur.start = t;
      cur.peak_rel_err = std::max(cur.peak_rel_err, rel);
      ++run;
    } else {
      flush(t);
    }
  });
  flush(last_t);
  return out;
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

}  // namespace

Summary summarize(const Recorder& rec, const AnalyzeConfig& cfg) {
  Summary s;
  s.schema_version = kSchemaVersion;
  s.n_series = rec.series().size();
  s.n_samples = rec.total_samples();
  bool any = false;
  for (const auto& [name, ser] : rec.series()) {
    if (ser.size() == 0) continue;
    if (!any) {
      s.t_begin = ser.t.front();
      s.t_end = ser.t.back();
      any = true;
    } else {
      s.t_begin = std::min(s.t_begin, ser.t.front());
      s.t_end = std::max(s.t_end, ser.t.back());
    }
  }

  for (const std::string& id : cell_ids(rec)) {
    const Series* est = rec.find("est.cell" + id + ".cf_bits_sf");
    const Series* truth = rec.find("truth.cell" + id + ".fair_bits_sf");
    if (est == nullptr || truth == nullptr) continue;
    CellAccuracy acc;
    acc.cell = id;
    acc.err = error_stats(*est, *truth, cfg);
    acc.lag = step_lag(*est, *truth, cfg);
    s.cells.push_back(std::move(acc));
    for (Anomaly& a : find_anomalies(id, *est, *truth, cfg)) {
      s.anomalies.push_back(std::move(a));
    }
  }

  if (const Series* st = rec.find("pbe.degradation_state");
      st != nullptr && st->size() > 0) {
    s.has_dwell = true;
    for (std::size_t i = 0; i + 1 < st->size(); ++i) {
      const double dt = util::to_seconds(st->t[i + 1] - st->t[i]);
      switch (st->i64[i]) {
        case 0: s.dwell.precise_s += dt; break;
        case 1: s.dwell.degraded_s += dt; break;
        default: s.dwell.fallback_s += dt; break;
      }
      if (st->i64[i + 1] != st->i64[i]) ++s.dwell.transitions;
    }
  }

  if (const Series* d = rec.find("decode.success_rate");
      d != nullptr && d->size() > 0) {
    s.final_decode_success = d->f64.back();
  }
  if (const Series* c = rec.find("decode.candidates");
      c != nullptr && c->size() > 1 && c->t.back() > c->t.front()) {
    s.candidates_per_sec =
        static_cast<double>(c->i64.back() - c->i64.front()) /
        util::to_seconds(c->t.back() - c->t.front());
  }
  if (const Series* v = rec.find("check.violations");
      v != nullptr && v->size() > 0) {
    s.violations = v->i64.back();
  }
  return s;
}

std::string render_summary_text(const Summary& s) {
  std::string out;
  out += "telemetry summary: " + std::to_string(s.n_series) + " series, " +
         std::to_string(s.n_samples) + " samples, span " +
         fmt("%.2f", util::to_seconds(s.t_end - s.t_begin)) + " s\n";
  for (const auto& c : s.cells) {
    out += "  cell " + c.cell + " capacity estimate vs ground truth (" +
           std::to_string(c.err.n) + " joined samples)\n";
    if (c.err.n > 0) {
      out += "    abs error  P50 " + fmt("%.0f", c.err.p50_abs) + "  P95 " +
             fmt("%.0f", c.err.p95_abs) + " bits/sf\n";
      out += "    rel error  P50 " + fmt("%.1f", c.err.p50_rel * 100) +
             "%  P95 " + fmt("%.1f", c.err.p95_rel * 100) + "%  mean " +
             fmt("%.1f", c.err.mean_rel * 100) + "%  max " +
             fmt("%.1f", c.err.max_rel * 100) + "%\n";
    }
    if (c.lag.steps > 0) {
      out += "    capacity steps " + std::to_string(c.lag.steps) +
             ", tracked " + std::to_string(c.lag.tracked) + ", lag mean " +
             fmt("%.0f", c.lag.mean_lag_ms) + " ms  max " +
             fmt("%.0f", c.lag.max_lag_ms) + " ms\n";
    }
  }
  if (s.has_dwell) {
    out += "  degradation dwell: PRECISE " + fmt("%.2f", s.dwell.precise_s) +
           " s, DEGRADED " + fmt("%.2f", s.dwell.degraded_s) +
           " s, FALLBACK " + fmt("%.2f", s.dwell.fallback_s) + " s (" +
           std::to_string(s.dwell.transitions) + " transitions)\n";
  }
  if (s.final_decode_success >= 0) {
    out += "  decode success rate (final): " +
           fmt("%.1f", s.final_decode_success * 100) + "%";
    if (s.candidates_per_sec >= 0) {
      out += ", candidates/s " + fmt("%.0f", s.candidates_per_sec);
    }
    out += "\n";
  }
  if (s.violations >= 0) {
    out += "  check.violations: " + std::to_string(s.violations) + "\n";
  }
  if (s.anomalies.empty()) {
    out += "  anomalies: none\n";
  } else {
    out += "  anomalies: " + std::to_string(s.anomalies.size()) + "\n";
    for (const auto& a : s.anomalies) {
      out += "    cell " + a.cell + "  [" +
             fmt("%.2f", util::to_seconds(a.start)) + " s, " +
             fmt("%.2f", util::to_seconds(a.end)) + " s]  peak rel err " +
             fmt("%.0f", a.peak_rel_err * 100) + "% over " +
             std::to_string(a.samples) + " samples\n";
    }
  }
  return out;
}

DiffResult diff(const Recorder& a, const Recorder& b,
                const DiffThresholds& th) {
  DiffResult out;
  // Comparing runs recorded at different cadences would mis-join every
  // series; refuse rather than report nonsense deltas.
  const auto ia = a.meta().find("interval_us");
  const auto ib = b.meta().find("interval_us");
  if (ia != a.meta().end() && ib != b.meta().end() && ia->second != ib->second) {
    out.schema_mismatch = true;
  }

  std::set<std::string> names;
  for (const auto& [n, s] : a.series()) names.insert(n);
  for (const auto& [n, s] : b.series()) names.insert(n);
  for (const std::string& name : names) {
    const Series* sa = a.find(name);
    const Series* sb = b.find(name);
    SeriesDelta d;
    d.name = name;
    if (sa == nullptr || sb == nullptr) {
      d.flagged = true;
      d.note = sa == nullptr ? "new-in-b" : "missing-in-b";
      if (sa != nullptr) d.n_a = sa->size();
      if (sb != nullptr) d.n_b = sb->size();
      ++out.flagged;
      out.deltas.push_back(std::move(d));
      continue;
    }
    ++out.compared;
    d.n_a = sa->size();
    d.n_b = sb->size();
    double sum_a = 0, sum_b = 0;
    for (std::size_t i = 0; i < sa->size(); ++i) sum_a += sa->value(i);
    for (std::size_t i = 0; i < sb->size(); ++i) sum_b += sb->value(i);
    d.mean_a = sa->size() ? sum_a / static_cast<double>(sa->size()) : 0;
    d.mean_b = sb->size() ? sum_b / static_cast<double>(sb->size()) : 0;
    const double base = std::max(std::fabs(d.mean_a), th.mean_floor);
    d.rel_delta = std::fabs(d.mean_b - d.mean_a) / base;
    const double count_base =
        std::max<double>(static_cast<double>(d.n_a), 1.0);
    const double count_delta =
        std::fabs(static_cast<double>(d.n_b) - static_cast<double>(d.n_a)) /
        count_base;
    if (d.rel_delta > th.mean_rel) {
      d.flagged = true;
      d.note = "mean";
    } else if (count_delta > th.count_rel &&
               d.n_a != d.n_b) {
      d.flagged = true;
      d.note = "count";
    }
    if (d.flagged) ++out.flagged;
    out.deltas.push_back(std::move(d));
  }
  return out;
}

std::string render_diff_text(const DiffResult& d) {
  std::string out;
  if (d.schema_mismatch) {
    out += "DIFF: sampling interval mismatch between runs — not comparable\n";
  }
  out += "compared " + std::to_string(d.compared) + " series, " +
         std::to_string(d.flagged) + " flagged\n";
  for (const auto& s : d.deltas) {
    if (!s.flagged) continue;
    out += "  " + s.name + " [" + s.note + "]";
    if (s.note == "mean") {
      out += "  mean " + fmt("%.6g", s.mean_a) + " -> " + fmt("%.6g", s.mean_b) +
             " (" + fmt("%+.2f", (s.mean_b - s.mean_a) >= 0
                                     ? s.rel_delta * 100
                                     : -s.rel_delta * 100) +
             "%)";
    } else if (s.note == "count") {
      out += "  samples " + std::to_string(s.n_a) + " -> " +
             std::to_string(s.n_b);
    }
    out += "\n";
  }
  if (d.flagged == 0 && !d.schema_mismatch) out += "runs match within thresholds\n";
  return out;
}

}  // namespace pbecc::tel
