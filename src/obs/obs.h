// pbecc::obs — umbrella header for the observability layer.
//
// Three cooperating pieces, all process-global and shared by every thread
// that runs simulation code (shard workers, runs side by side on a bench
// grid's pool). The trace and the registry are thread-safe; the profiler
// is switched on or off before runs start:
//
//   trace.h    structured event timeline (sim-clock timestamps, ring
//              buffer, JSONL + Chrome trace_event exporters)
//   metrics.h  named counter/gauge/histogram registry, JSON report
//   profile.h  PBECC_PROF_SCOPE wall-clock profiler feeding `prof.*`
//              histograms in the registry
//
// Tracing and profiling are opt-in at runtime; idle call sites cost one
// predictable branch. Counters and gauges always count.
#pragma once

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace pbecc::obs {

// Reset every observability sink: stop + drop the trace, zero the registry.
// Tests and multi-run drivers call this between runs.
inline void reset_all() {
  Trace::instance().clear();
  Registry::instance().reset();
}

}  // namespace pbecc::obs
