#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::uint32_t Tracer::intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

bool Tracer::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%d\n", names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0), s.parent);
  }
  return std::fclose(f) == 0;
}

double Ledger::self(const std::string& name) const {
  const auto it = self_ms.find(name);
  return it == self_ms.end() ? 0.0 : it->second;
}

double Ledger::inclusive(const std::string& name) const {
  const auto it = inclusive_ms.find(name);
  return it == inclusive_ms.end() ? 0.0 : it->second;
}

void Ledger::merge(const Ledger& other) {
  for (const auto& [k, v] : other.self_ms) self_ms[k] += v;
  for (const auto& [k, v] : other.inclusive_ms) inclusive_ms[k] += v;
  wall_ms += other.wall_ms;
  unattributed_ms += other.unattributed_ms;
}

void Ledger::scale(double f) {
  for (auto* rows : {&self_ms, &inclusive_ms}) {
    for (auto& [k, v] : *rows) v *= f;
  }
  wall_ms *= f;
  unattributed_ms *= f;
}

double Ledger::closure_ms() const {
  double sum = unattributed_ms;
  for (const auto& [k, v] : self_ms) sum += v;
  return sum;
}

namespace {

// Length of the union of [start, end) intervals clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& iv,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, reach);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return covered;
}

}  // namespace

Ledger make_ledger(const std::vector<Span>& spans,
                   const std::vector<std::string>& names, std::int64_t wall_ns) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> roots;
  std::int64_t lo = INT64_MAX;
  for (const Span& s : spans) {
    if (s.parent < 0) {
      roots.emplace_back(s.start_ns, s.end_ns);
      lo = std::min(lo, s.start_ns);
    } else {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  Ledger out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string& name = names[s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    const std::int64_t self = dur - covered_ns(children[i], s.start_ns, s.end_ns);
    out.self_ms[name] += static_cast<double>(self) / 1e6;
    out.inclusive_ms[name] += static_cast<double>(dur) / 1e6;
  }
  const std::int64_t root_ns =
      roots.empty() ? 0 : covered_ns(roots, lo, INT64_MAX);
  out.wall_ms = static_cast<double>(wall_ns) / 1e6;
  out.unattributed_ms = static_cast<double>(wall_ns - root_ns) / 1e6;
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no values");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

namespace {
std::size_t nearest_rank(std::size_t n, double p) {
  const auto r = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}
}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of no values");
  const std::size_t r = nearest_rank(v.size(), p);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(r - 1), v.end());
  return v[r - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double highest_supported_percentile(std::size_t n) {
  double best = 0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (samples_beyond(n, p) >= 10) best = p;
  }
  return best;
}

}  // namespace perfbench
