#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace pbecc::obs {

namespace {

int bucket_index(std::uint64_t v) {
  if (v <= 1) return 0;
  const int b = 63 - std::countl_zero(v);
  return std::min(b, ExpHistogram::kBuckets - 1);
}

// Geometric midpoint of bucket i: sqrt(2^i * 2^{i+1}).
double bucket_mid(int i) {
  return std::exp2(static_cast<double>(i) + 0.5);
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else {
      out += c;
    }
  }
}

}  // namespace

void ExpHistogram::record(std::uint64_t v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  sum_.fetch_add(v, std::memory_order_relaxed);
  buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);
}

double ExpHistogram::percentile(double p) const {
  const auto n = count();
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // The extremes are tracked exactly; only interior quantiles are
  // bucket-midpoint approximations.
  if (p == 0.0) return static_cast<double>(min());
  if (p == 100.0) return static_cast<double>(max());
  const auto target =
      static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  const auto snap = buckets();
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += snap[static_cast<std::size_t>(i)];
    if (seen >= target && snap[static_cast<std::size_t>(i)] > 0) {
      // Clamp the bucket estimate by the exact extremes.
      return std::clamp(bucket_mid(i), static_cast<double>(min()),
                        static_cast<double>(max()));
    }
  }
  return static_cast<double>(max());
}

std::array<std::uint64_t, ExpHistogram::kBuckets> ExpHistogram::buckets()
    const {
  std::array<std::uint64_t, kBuckets> out{};
  for (int i = 0; i < kBuckets; ++i) {
    out[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  return out;
}

void ExpHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(m_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(m_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

ExpHistogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(m_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<ExpHistogram>();
  return *slot;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(m_);
  for (auto& [n, c] : counters_) c->reset();
  for (auto& [n, g] : gauges_) g->reset();
  for (auto& [n, h] : histograms_) h->reset();
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [n, c] : counters_) out.emplace_back(n, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [n, g] : gauges_) out.emplace_back(n, g->value());
  return out;
}

std::vector<std::pair<std::string, const ExpHistogram*>> Registry::histograms()
    const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<std::pair<std::string, const ExpHistogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [n, h] : histograms_) out.emplace_back(n, h.get());
  return out;
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lk(m_);
  // schema_version first, then the sections in fixed order — consumers may
  // rely on deterministic key order for textual diffs.
  std::string out = "{\n  \"schema_version\": 1,\n  \"counters\": {";
  char buf[128];
  bool first = true;
  for (const auto& [n, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, n);
    std::snprintf(buf, sizeof(buf), "\": %llu",
                  static_cast<unsigned long long>(c->value()));
    out += buf;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [n, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, n);
    const double v = g->value();
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "\": %.6g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "\": null");
    }
    out += buf;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [n, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, n);
    std::snprintf(
        buf, sizeof(buf),
        "\": {\"count\": %llu, \"sum\": %llu, \"min\": %llu, \"max\": %llu, ",
        static_cast<unsigned long long>(h->count()),
        static_cast<unsigned long long>(h->sum()),
        static_cast<unsigned long long>(h->min()),
        static_cast<unsigned long long>(h->max()));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"mean\": %.6g, \"p50\": %.6g, \"p95\": %.6g, \"p99\": %.6g, ",
                  h->mean(), h->percentile(50), h->percentile(95),
                  h->percentile(99));
    out += buf;
    // Sparse bucket list: [[log2_lo, count], ...].
    out += "\"buckets\": [";
    bool bfirst = true;
    const auto bsnap = h->buckets();
    for (int i = 0; i < ExpHistogram::kBuckets; ++i) {
      const auto c = bsnap[static_cast<std::size_t>(i)];
      if (c == 0) continue;
      if (!bfirst) out += ", ";
      bfirst = false;
      std::snprintf(buf, sizeof(buf), "[%d, %llu]", i,
                    static_cast<unsigned long long>(c));
      out += buf;
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

bool Registry::write_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

}  // namespace pbecc::obs
