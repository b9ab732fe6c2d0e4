// pbecc::obs — umbrella header for the observability layer.
//
// Three cooperating pieces:
//
//   trace.h    structured event timeline (sim-clock timestamps, ring
//              buffer, JSONL + Chrome trace_event exporters); a traced
//              run owns its Trace and fills it through per-thread sinks
//   metrics.h  named counter/gauge/histogram registry, JSON report;
//              process-global and thread-safe, shared by every thread
//              that runs simulation code (shard workers, runs side by
//              side on a bench grid's pool)
//   profile.h  PBECC_PROF_SCOPE wall-clock profiler feeding `prof.*`
//              histograms in the registry, switched on or off before
//              runs start
//
// Tracing and profiling are opt-in at runtime; idle call sites cost one
// predictable branch. Counters and gauges always count.
#pragma once

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
