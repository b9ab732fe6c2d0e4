// Buffered .pbt trace capture (DESIGN.md §11).
//
// File layout:
//   magic "PBT1" | version u16 | header_len u32 | header_crc32 u32 | header
//   repeated chunks:
//     payload_len u32 | n_records u32 | payload_crc32 u32 | payload
// All multi-byte integers little-endian. Records accumulate in memory and
// are flushed one CRC-protected chunk at a time, so a capture that dies
// mid-run leaves a trace valid up to its last complete chunk.
//
// Errors (open/IO failures, records before begin()) are sticky: the writer
// goes inert, `ok()` turns false and `error()` names the first failure —
// a capture tap inside the hot path never throws.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "cap/format.h"

namespace pbecc::cap {

class TraceWriter {
 public:
  // `chunk_records` bounds how many records a chunk holds (a size cap on
  // the encoded payload applies too, whichever is hit first). The file is
  // written in kFormatVersion.
  explicit TraceWriter(std::string path, std::size_t chunk_records = 256);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  // Opens the file and writes the header; must be called exactly once,
  // before the first record. (Deferred from the constructor because the
  // capture tap learns the pipeline configuration only when the scenario
  // builds its PBE client.)
  void begin(const TraceHeader& header);
  bool begun() const { return begun_; }

  void record_batch(const BatchRecord& batch);
  void record_window(util::Time t, util::Duration window);
  void record_probe(util::Time t);

  // Flushes the final chunk and closes the file. Returns ok(). Called by
  // the destructor if not called explicitly.
  bool close();

  bool ok() const { return err_.empty(); }
  const std::string& error() const { return err_; }
  const std::string& path() const { return path_; }
  std::uint64_t records_written() const { return records_written_; }
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  void append(const Record& rec);
  void flush_chunk();
  void write_bytes(const void* data, std::size_t len);
  void fail(std::string msg);

  std::string path_;
  std::size_t chunk_records_;
  std::FILE* file_ = nullptr;
  bool begun_ = false;
  std::string err_;

  ByteWriter chunk_;
  std::size_t chunk_count_ = 0;  // records in the open chunk
  DeltaState delta_{};
  std::uint64_t records_written_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace pbecc::cap
