// Trace inspection and surgery shared by the trace_tool CLI and the test
// suite: summarize (info/stats), verify (strict integrity + ordering
// checks), cut (extract a subframe range), and merge (concatenate
// same-configuration traces).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cap/format.h"

namespace pbecc::cap {

struct TraceSummary {
  std::uint16_t version = 0;  // on-disk format version the reader found
  TraceHeader header;
  std::uint64_t records = 0;
  std::uint64_t chunks = 0;
  std::uint64_t batches = 0;
  std::uint64_t cell_subframes = 0;
  std::uint64_t window_sets = 0;
  std::uint64_t probes = 0;
  std::int64_t first_sf = 0, last_sf = 0;  // valid iff batches > 0
  util::Time first_t = 0, last_t = 0;      // valid iff window_sets+probes > 0
  std::map<phy::CellId, std::uint64_t> cell_counts;
  bool complete = false;  // reader reached a clean end-of-trace
  std::string damage;     // set when !complete: what stopped the walk
};

// Walks the whole trace. Returns false (with `err`) only when the header
// itself is unreadable — mid-stream damage still yields the valid prefix,
// with `out.complete == false` and `out.damage` naming the fault.
bool summarize(const std::string& path, TraceSummary& out, std::string& err);

// Strict variant: any damage, or a batch stream whose sf_index is not
// strictly increasing, or timed records running backwards, is an error.
bool verify(const std::string& path, TraceSummary& out, std::string& err);

// Copies records from `in` whose subframe falls in [sf_from, sf_to] —
// batches by sf_index, window/probe records by their timestamp's subframe —
// into a fresh trace at `out_path` with the same header.
bool cut(const std::string& in, const std::string& out_path,
         std::int64_t sf_from, std::int64_t sf_to, std::string& err);

// Concatenates traces recorded with byte-identical headers (same pipeline
// configuration) into `out_path`. Inputs must be in stream order: each
// input's first batch may not precede the previous input's last batch.
bool merge(const std::vector<std::string>& inputs,
           const std::string& out_path, std::string& err);

}  // namespace pbecc::cap
