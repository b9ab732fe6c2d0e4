#include "check/check.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "obs/metrics.h"

namespace pbecc::check {

namespace {

struct Site {
  std::uint64_t count = 0;
  const char* file = "";
  int line = 0;
};

struct State {
  std::mutex m;
  std::map<std::string, Site> sites;
};

State& state() {
  static State* s = new State();  // never destroyed: fail() may run late
  return *s;
}

std::atomic<std::uint64_t> total{0};
std::atomic<bool> abort_flag{false};

}  // namespace

std::uint64_t violations() { return total.load(std::memory_order_relaxed); }

std::uint64_t violations(const std::string& name) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  const auto it = s.sites.find(name);
  return it == s.sites.end() ? 0 : it->second.count;
}

std::vector<std::pair<std::string, std::uint64_t>> all_violations() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(s.sites.size());
  for (const auto& [name, site] : s.sites) out.emplace_back(name, site.count);
  return out;
}

std::string describe_violations() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  std::string out;
  for (const auto& [name, site] : s.sites) {
    if (!out.empty()) out += ", ";
    out += name + " (" + site.file + ":" + std::to_string(site.line) + ") x" +
           std::to_string(site.count);
  }
  return out;
}

void reset() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.m);
  s.sites.clear();
  total.store(0, std::memory_order_relaxed);
}

void set_abort_on_violation(bool abort_on_violation) {
  abort_flag.store(abort_on_violation, std::memory_order_relaxed);
}

bool abort_on_violation() {
  return abort_flag.load(std::memory_order_relaxed);
}

namespace detail {

void fail(const char* name, const char* file, int line) {
  if (abort_flag.load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "pbecc invariant violated: %s at %s:%d\n", name, file,
                 line);
    std::abort();
  }
  total.fetch_add(1, std::memory_order_relaxed);
  bool first_of_name = false;
  {
    State& s = state();
    std::lock_guard<std::mutex> lock(s.m);
    Site& site = s.sites[name];
    first_of_name = site.count == 0;
    ++site.count;
    site.file = file;
    site.line = line;
  }
  // One stderr note per distinct invariant: a drifting invariant firing per
  // subframe must not flood a multi-hour run's log.
  if (first_of_name) {
    std::fprintf(stderr, "pbecc invariant violated: %s at %s:%d\n", name, file,
                 line);
  }
  // Mirror into the metrics registry so soak reports carry the counts.
  obs::counter("check.violations").inc();
  obs::counter(std::string("check.violation.") + name).inc();
}

}  // namespace detail

}  // namespace pbecc::check
