// Streaming .pbt trace reader (DESIGN.md §11).
//
// Fail-closed by construction: every length field is bounds-checked before
// allocation, every chunk's CRC-32 is verified before a single record in
// it is decoded, and any violation — truncation, bit flips, unknown
// versions, implausible counts — parks the reader in a sticky error state
// with a human-readable message. A valid prefix of a damaged trace is
// still served: records from complete, CRC-clean chunks are returned
// before the error is reported.
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "cap/format.h"

namespace pbecc::cap {

class TraceReader {
 public:
  explicit TraceReader(const std::string& path);
  ~TraceReader();
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  bool ok() const { return err_.empty(); }
  const std::string& error() const { return err_; }
  const TraceHeader& header() const { return header_; }
  // On-disk format version of the open trace (kFormatVersion, the only
  // one this build reads); 0 until the file header parsed.
  std::uint16_t version() const { return version_; }

  // Fills `out` with the next record. Returns false at end-of-trace or on
  // error — distinguish with ok().
  bool next(Record& out);

  std::uint64_t records_read() const { return records_read_; }
  std::uint64_t chunks_read() const { return chunks_read_; }

 private:
  bool load_chunk();  // decode one chunk into pending_
  void fail(std::string msg);

  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint16_t version_ = 0;
  TraceHeader header_{};
  std::string err_;
  std::deque<Record> pending_;
  DeltaState delta_{};
  std::uint64_t records_read_ = 0;
  std::uint64_t chunks_read_ = 0;
};

}  // namespace pbecc::cap
