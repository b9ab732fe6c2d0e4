// Scoped wall-clock profiler.
//
//   void BlindDecoder::decode(...) {
//     PBECC_PROF_SCOPE("blind_decode");
//     ...
//   }
//
// Each call site owns a static ProfSite registered as the histogram
// `prof.<name>` (nanoseconds per entry) in the metrics registry; the RAII
// ProfScope reads std::chrono::steady_clock on entry/exit. This is the one
// place the observability layer uses wall clock — it measures the *real*
// CPU cost of simulated work (is blind decoding faster than the 1 ms
// subframe budget?), so the sim clock is useless here.
//
// Off by default: enable with set_profiling(true). When disabled the scope
// costs a single branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace pbecc::obs {

namespace detail {
inline bool g_prof_on = false;
}  // namespace detail

inline void set_profiling(bool on) { detail::g_prof_on = on; }
inline bool profiling_enabled() { return detail::g_prof_on; }

class ProfSite {
 public:
  explicit ProfSite(const char* name)
      : hist_(&histogram(std::string("prof.") + name)) {}

  void record_ns(std::uint64_t ns) { hist_->record(ns); }

 private:
  ExpHistogram* hist_;
};

class ProfScope {
 public:
  explicit ProfScope(ProfSite& site) {
    if (detail::g_prof_on) {
      site_ = &site;
      t0_ = std::chrono::steady_clock::now();
    }
  }
  ~ProfScope() {
    if (site_ != nullptr) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0_)
                          .count();
      site_->record_ns(static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ProfSite* site_ = nullptr;
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace pbecc::obs

#define PBECC_OBS_CONCAT_INNER(a, b) a##b
#define PBECC_OBS_CONCAT(a, b) PBECC_OBS_CONCAT_INNER(a, b)

#define PBECC_PROF_SCOPE(name_literal)                                   \
  static ::pbecc::obs::ProfSite PBECC_OBS_CONCAT(pbecc_prof_site_,       \
                                                 __LINE__){name_literal}; \
  ::pbecc::obs::ProfScope PBECC_OBS_CONCAT(pbecc_prof_scope_, __LINE__) { \
    PBECC_OBS_CONCAT(pbecc_prof_site_, __LINE__)                          \
  }
