#include "cap/trace_writer.h"

#include <cerrno>
#include <cstring>

#include "util/crc.h"

namespace pbecc::cap {

namespace {
// Flush the open chunk once its encoded payload crosses this size even if
// the record-count bound has not been reached (keeps chunks of large
// convolutional-PDCCH batches from ballooning).
constexpr std::size_t kChunkFlushBytes = 256 * 1024;
}  // namespace

TraceWriter::TraceWriter(std::string path, std::size_t chunk_records)
    : path_(std::move(path)),
      chunk_records_(chunk_records == 0 ? 1 : chunk_records) {}

TraceWriter::~TraceWriter() { close(); }

void TraceWriter::fail(std::string msg) {
  if (err_.empty()) err_ = std::move(msg);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void TraceWriter::write_bytes(const void* data, std::size_t len) {
  if (file_ == nullptr || len == 0) return;
  if (std::fwrite(data, 1, len, file_) != len) {
    fail(path_ + ": write failed: " + std::strerror(errno));
    return;
  }
  bytes_written_ += len;
}

void TraceWriter::begin(const TraceHeader& header) {
  if (begun_) {
    fail(path_ + ": begin() called twice");
    return;
  }
  begun_ = true;
  if (!ok()) return;
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    fail(path_ + ": open failed: " + std::strerror(errno));
    return;
  }
  ByteWriter payload;
  encode_header(header, payload);
  ByteWriter framed;
  framed.put_bytes(kMagic, sizeof kMagic);
  framed.put_u16(kFormatVersion);
  framed.put_u32(static_cast<std::uint32_t>(payload.size()));
  framed.put_u32(util::crc32(payload.buf().data(), payload.size()));
  framed.put_bytes(payload.buf().data(), payload.size());
  write_bytes(framed.buf().data(), framed.size());
}

void TraceWriter::append(const Record& rec) {
  if (!begun_) {
    fail(path_ + ": record before begin()");
    return;
  }
  if (!ok()) return;
  encode_record(rec, delta_, chunk_);
  ++chunk_count_;
  ++records_written_;
  if (chunk_count_ >= chunk_records_ || chunk_.size() >= kChunkFlushBytes) {
    flush_chunk();
  }
}

void TraceWriter::record_batch(const BatchRecord& batch) {
  Record rec;
  rec.kind = Record::Kind::kBatch;
  rec.batch = batch;
  append(rec);
}

void TraceWriter::record_window(util::Time t, util::Duration window) {
  Record rec;
  rec.kind = Record::Kind::kWindow;
  rec.window = {t, window};
  append(rec);
}

void TraceWriter::record_probe(util::Time t) {
  Record rec;
  rec.kind = Record::Kind::kProbe;
  rec.probe = {t};
  append(rec);
}

void TraceWriter::flush_chunk() {
  if (!ok() || chunk_count_ == 0) return;
  ByteWriter framing;
  framing.put_u32(static_cast<std::uint32_t>(chunk_.size()));
  framing.put_u32(static_cast<std::uint32_t>(chunk_count_));
  framing.put_u32(util::crc32(chunk_.buf().data(), chunk_.size()));
  write_bytes(framing.buf().data(), framing.size());
  write_bytes(chunk_.buf().data(), chunk_.size());
  chunk_.clear();
  chunk_count_ = 0;
}

bool TraceWriter::close() {
  if (file_ != nullptr) {
    flush_chunk();
    if (file_ != nullptr && std::fclose(file_) != 0) {
      file_ = nullptr;
      fail(path_ + ": close failed: " + std::strerror(errno));
    }
    file_ = nullptr;
  }
  return ok();
}

}  // namespace pbecc::cap
