#include "cap/trace_reader.h"

#include <cerrno>
#include <cstring>

#include "util/crc.h"

namespace pbecc::cap {

TraceReader::TraceReader(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    fail(path_ + ": open failed: " + std::strerror(errno));
    return;
  }
  // --- File header: magic, version, framed header payload.
  std::uint8_t fixed[4 + 2 + 4 + 4];
  if (std::fread(fixed, 1, sizeof fixed, file_) != sizeof fixed) {
    fail(path_ + ": truncated file header");
    return;
  }
  ByteReader fr(fixed, sizeof fixed);
  const std::uint8_t* magic = fr.get_bytes(4);
  if (std::memcmp(magic, kMagic, 4) != 0) {
    fail(path_ + ": not a .pbt trace (bad magic)");
    return;
  }
  const std::uint16_t version = fr.get_u16();
  if (version != kFormatVersion) {
    fail(path_ + ": unsupported trace version " + std::to_string(version) +
         " (this build reads version " + std::to_string(kFormatVersion) +
         ")");
    return;
  }
  version_ = version;
  const std::uint32_t header_len = fr.get_u32();
  const std::uint32_t header_crc = fr.get_u32();
  if (header_len == 0 || header_len > kMaxChunkBytes) {
    fail(path_ + ": implausible header length " + std::to_string(header_len));
    return;
  }
  std::vector<std::uint8_t> payload(header_len);
  if (std::fread(payload.data(), 1, header_len, file_) != header_len) {
    fail(path_ + ": truncated header");
    return;
  }
  if (util::crc32(payload.data(), payload.size()) != header_crc) {
    fail(path_ + ": header CRC mismatch (corrupt trace)");
    return;
  }
  ByteReader hr(payload.data(), payload.size());
  std::string err;
  if (!decode_header(hr, header_, err)) {
    fail(path_ + ": " + err);
    return;
  }
  if (!hr.at_end()) {
    fail(path_ + ": trailing bytes after header payload");
  }
}

TraceReader::~TraceReader() {
  if (file_ != nullptr) std::fclose(file_);
}

void TraceReader::fail(std::string msg) {
  if (err_.empty()) err_ = std::move(msg);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool TraceReader::load_chunk() {
  if (file_ == nullptr) return false;
  std::uint8_t framing[12];
  const std::size_t got = std::fread(framing, 1, sizeof framing, file_);
  if (got == 0 && std::feof(file_)) {
    // Clean end-of-trace at a chunk boundary.
    std::fclose(file_);
    file_ = nullptr;
    return false;
  }
  if (got != sizeof framing) {
    fail(path_ + ": truncated chunk framing after " +
         std::to_string(chunks_read_) + " chunk(s)");
    return false;
  }
  ByteReader fr(framing, sizeof framing);
  const std::uint32_t payload_len = fr.get_u32();
  const std::uint32_t n_records = fr.get_u32();
  const std::uint32_t crc = fr.get_u32();
  if (payload_len == 0 || payload_len > kMaxChunkBytes ||
      n_records == 0 || n_records > payload_len) {
    fail(path_ + ": implausible chunk framing (len=" +
         std::to_string(payload_len) + ", records=" +
         std::to_string(n_records) + ")");
    return false;
  }
  std::vector<std::uint8_t> payload(payload_len);
  if (std::fread(payload.data(), 1, payload_len, file_) != payload_len) {
    fail(path_ + ": truncated chunk payload after " +
         std::to_string(chunks_read_) + " chunk(s)");
    return false;
  }
  if (util::crc32(payload.data(), payload.size()) != crc) {
    fail(path_ + ": chunk " + std::to_string(chunks_read_) +
         " CRC mismatch (corrupt trace)");
    return false;
  }
  ByteReader br(payload.data(), payload.size());
  std::string err;
  for (std::uint32_t i = 0; i < n_records; ++i) {
    Record rec;
    if (!decode_record(br, delta_, rec, err)) {
      fail(path_ + ": chunk " + std::to_string(chunks_read_) + ": " + err);
      pending_.clear();  // a chunk is all-or-nothing
      return false;
    }
    pending_.push_back(std::move(rec));
  }
  if (!br.at_end()) {
    fail(path_ + ": chunk " + std::to_string(chunks_read_) +
         " has trailing bytes after its records");
    pending_.clear();
    return false;
  }
  ++chunks_read_;
  return true;
}

bool TraceReader::next(Record& out) {
  if (!ok()) return false;
  while (pending_.empty()) {
    if (!load_chunk()) return false;
  }
  out = std::move(pending_.front());
  pending_.pop_front();
  ++records_read_;
  return true;
}

}  // namespace pbecc::cap
