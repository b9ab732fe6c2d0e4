// Span recording, self-time ledger and order statistics for the benchmark.
//
// Spans are recorded by the benchmark's own code around calls into the
// library's public functions; nothing inside src/ is instrumented. A span
// is (name, start, end, parent). Its self time is its duration minus the
// part of its interval covered by its children, so the self times of every
// span plus the time no root span covers add up to the traced wall time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t name = 0;    // index into Tracer::names()
  std::int32_t parent = -1;  // index into Tracer::spans(), -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Collects spans in memory. When constructed disabled every call is a
// cheap no-op, so one code path serves the traced and untraced runs.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Stable id for a span name; call once per name, outside hot loops.
  std::uint32_t intern(const std::string& name);

  // Opens a span as a child of the innermost open one.
  void open(std::uint32_t name) {
    if (!enabled_) return;
    const std::int32_t up = parent();
    stack_.push_back(static_cast<std::int32_t>(spans_.size()));
    spans_.push_back(Span{name, up, now_ns(), 0});
  }
  void close() {
    if (!enabled_) return;
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = now_ns();
    stack_.pop_back();
  }
  // A span whose bounds were taken elsewhere (for example by two callbacks
  // of the library), recorded as a child of the innermost open span.
  void add(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns) {
    if (!enabled_) return;
    spans_.push_back(Span{name, parent(), start_ns, end_ns});
  }

  // RAII form of open/close.
  class Scope {
   public:
    Scope(Tracer& t, std::uint32_t name) : t_(t) { t_.open(name); }
    ~Scope() { t_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

  // Writes the spans as tab-separated `name start_ns end_ns parent` rows,
  // times relative to the first span. Returns false on an I/O error.
  bool write_tsv(const std::string& path) const;

 private:
  std::int32_t parent() const { return stack_.empty() ? -1 : stack_.back(); }

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

// Per-name totals of one traced interval.
struct Ledger {
  std::map<std::string, double> self_ms;       // exclusive time per name
  std::map<std::string, double> inclusive_ms;  // summed durations per name
  double wall_ms = 0;
  double unattributed_ms = 0;  // wall minus the time root spans cover

  double self(const std::string& name) const;
  double inclusive(const std::string& name) const;
  // Adds another interval's ledger (used to sum several traced passes).
  void merge(const Ledger& other);
  // Multiplies every time by `f`.
  void scale(double f);
  // Sum of every self time plus unattributed_ms; equals wall_ms.
  double closure_ms() const;
};

// Builds the ledger of `spans` over a traced interval of `wall_ns`.
Ledger make_ledger(const std::vector<Span>& spans,
                   const std::vector<std::string>& names, std::int64_t wall_ns);

// --- Order statistics ---

double median(std::vector<double> v);
// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it. p in (0, 100].
double percentile(std::vector<double> v, double p);
// Samples strictly above the nearest-rank p-th percentile's rank.
std::size_t samples_beyond(std::size_t n, double p);
// Highest of 50, 90, 99, 99.9 and 99.99 with at least ten samples beyond
// its rank, or 0 when even the median lacks them.
double highest_supported_percentile(std::size_t n);

}  // namespace perfbench
