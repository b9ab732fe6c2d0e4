// Glue between a measurement pipeline and the capture subsystem: builds
// the pbe::ClientTaps bundle that routes the pipeline's inputs into a
// TraceWriter and/or its outputs into a PipelineDigest. Kept in pbecc::cap
// so pbecc::pbe stays free of any capture dependency — the pipeline only
// sees plain std::function hooks.
#pragma once

#include "cap/replay.h"
#include "cap/trace_writer.h"
#include "pbe/measurement_pipeline.h"

namespace pbecc::cap {

// Either pointer may be null (that side's hooks stay unset). The writer
// must have been begun() with the client's configuration header first;
// build one with capture_header() below.
pbe::ClientTaps make_client_taps(TraceWriter* writer, PipelineDigest* digest);

// The trace header describing a PBE client's pipeline configuration —
// exactly what ReplayDriver needs to rebuild it. `faults` may be null.
TraceHeader capture_header(const pbe::PbeClientConfig& cfg,
                           const fault::FaultInjector* faults);

}  // namespace pbecc::cap
