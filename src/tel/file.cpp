#include "tel/file.h"

#include <bit>
#include <cstdio>
#include <cstring>

#include "cap/wire.h"
#include "util/crc.h"

namespace pbecc::tel {

namespace {

enum BlockKind : std::uint8_t { kHeaderBlock = 0, kSeriesBlock = 1 };

void put_string(cap::ByteWriter& w, const std::string& s) {
  w.put_varint(s.size());
  w.put_bytes(s.data(), s.size());
}

bool get_string(cap::ByteReader& r, std::string* out) {
  const std::uint64_t n = r.get_varint();
  if (!r.ok()) return false;
  if (n > kMaxBlockBytes) {
    r.fail("string length exceeds block cap");
    return false;
  }
  const std::uint8_t* p = r.get_bytes(static_cast<std::size_t>(n));
  if (p == nullptr) return false;
  out->assign(reinterpret_cast<const char*>(p), static_cast<std::size_t>(n));
  return true;
}

void frame_block(std::vector<std::uint8_t>& out, const cap::ByteWriter& payload) {
  cap::ByteWriter frame;
  frame.put_u32(static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), frame.buf().begin(), frame.buf().end());
  out.insert(out.end(), payload.buf().begin(), payload.buf().end());
  cap::ByteWriter crc;
  crc.put_u32(util::crc32(payload.buf().data(), payload.size()));
  out.insert(out.end(), crc.buf().begin(), crc.buf().end());
}

void encode_series(cap::ByteWriter& w, const Series& s) {
  w.put_u8(kSeriesBlock);
  put_string(w, s.name);
  put_string(w, s.unit);
  w.put_u8(static_cast<std::uint8_t>(s.kind));
  w.put_varint(s.size());
  util::Time prev_t = 0;
  for (const util::Time t : s.t) {
    w.put_svarint(t - prev_t);
    prev_t = t;
  }
  if (s.kind == ValueKind::kF64) {
    std::uint64_t prev_bits = 0;
    for (const double v : s.f64) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      // XOR against the previous sample: identical consecutive values — the
      // common case for state gauges and slow-moving rates — cost one byte.
      w.put_varint(bits ^ prev_bits);
      prev_bits = bits;
    }
  } else {
    std::int64_t prev = 0;
    for (const std::int64_t v : s.i64) {
      w.put_svarint(v - prev);
      prev = v;
    }
  }
}

bool decode_series(cap::ByteReader& r, Recorder* out) {
  Series s;
  if (!get_string(r, &s.name) || !get_string(r, &s.unit)) return false;
  const std::uint8_t kind = r.get_u8();
  if (kind > static_cast<std::uint8_t>(ValueKind::kI64)) {
    r.fail("unknown series value kind");
    return false;
  }
  s.kind = static_cast<ValueKind>(kind);
  const std::uint64_t n = r.get_varint();
  if (!r.ok()) return false;
  // Each sample needs at least two bytes (delta-t + value); anything
  // claiming more samples than bytes is corrupt.
  if (n > r.remaining()) {
    r.fail("series sample count exceeds payload size");
    return false;
  }
  util::Time prev_t = 0;
  std::vector<util::Time> ts;
  ts.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    prev_t += r.get_svarint();
    ts.push_back(prev_t);
  }
  if (s.kind == ValueKind::kF64) {
    std::uint64_t prev_bits = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      prev_bits ^= r.get_varint();
      if (!r.ok()) return false;
      out->append_f64(s.name, s.unit, ts[static_cast<std::size_t>(i)],
                      std::bit_cast<double>(prev_bits));
    }
  } else {
    std::int64_t prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      prev += r.get_svarint();
      if (!r.ok()) return false;
      out->append_i64(s.name, s.unit, ts[static_cast<std::size_t>(i)], prev);
    }
  }
  if (!r.ok()) return false;
  if (!r.at_end()) {
    r.fail("trailing bytes after series samples");
    return false;
  }
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode(const Recorder& rec) {
  std::vector<std::uint8_t> out(kFileMagic, kFileMagic + 4);
  cap::ByteWriter ver;
  ver.put_u16(kContainerVersion);
  out.insert(out.end(), ver.buf().begin(), ver.buf().end());

  cap::ByteWriter header;
  header.put_u8(kHeaderBlock);
  header.put_varint(kSchemaVersion);
  header.put_varint(rec.series().size());
  header.put_varint(rec.meta().size());
  for (const auto& [k, v] : rec.meta()) {
    put_string(header, k);
    put_string(header, v);
  }
  frame_block(out, header);

  for (const auto& [name, s] : rec.series()) {
    cap::ByteWriter w;
    encode_series(w, s);
    frame_block(out, w);
  }
  return out;
}

bool decode(const std::uint8_t* data, std::size_t len, Recorder* out,
            std::string* err) {
  const auto fail = [&](const std::string& msg) {
    if (err != nullptr) *err = msg;
    return false;
  };
  cap::ByteReader top(data, len);
  const std::uint8_t* magic = top.get_bytes(4);
  if (magic == nullptr || std::memcmp(magic, kFileMagic, 4) != 0) {
    return fail("not a telemetry file (bad magic)");
  }
  const std::uint16_t version = top.get_u16();
  if (!top.ok()) return fail(top.error());
  if (version != kContainerVersion) {
    return fail("unsupported container version " + std::to_string(version));
  }

  bool have_header = false;
  std::uint64_t expect_series = 0;
  std::uint64_t got_series = 0;
  while (!top.at_end()) {
    const std::uint32_t blen = top.get_u32();
    if (!top.ok()) return fail(top.error());
    if (blen > kMaxBlockBytes) return fail("block length exceeds cap");
    const std::uint8_t* payload = top.get_bytes(blen);
    if (payload == nullptr) return fail("truncated block payload");
    const std::uint32_t want_crc = top.get_u32();
    if (!top.ok()) return fail("truncated block checksum");
    if (util::crc32(payload, blen) != want_crc) {
      return fail("block checksum mismatch (corrupt or truncated file)");
    }
    cap::ByteReader r(payload, blen);
    const std::uint8_t kind = r.get_u8();
    if (!r.ok()) return fail("empty block");
    if (!have_header) {
      if (kind != kHeaderBlock) return fail("first block is not the header");
      const std::uint64_t schema = r.get_varint();
      if (!r.ok()) return fail(r.error());
      if (schema != kSchemaVersion) {
        return fail("unsupported telemetry schema version " +
                    std::to_string(schema));
      }
      expect_series = r.get_varint();
      const std::uint64_t n_meta = r.get_varint();
      if (!r.ok()) return fail(r.error());
      for (std::uint64_t i = 0; i < n_meta; ++i) {
        std::string k, v;
        if (!get_string(r, &k) || !get_string(r, &v)) return fail(r.error());
        out->set_meta(k, v);
      }
      if (!r.at_end()) return fail("trailing bytes in header block");
      have_header = true;
      continue;
    }
    if (kind != kSeriesBlock) return fail("unexpected block kind after header");
    if (!decode_series(r, out)) return fail(r.error());
    ++got_series;
  }
  if (!have_header) return fail("missing header block");
  if (got_series != expect_series) {
    return fail("expected " + std::to_string(expect_series) +
                " series, file holds " + std::to_string(got_series) +
                " (truncated?)");
  }
  return true;
}

bool write_file(const Recorder& rec, const std::string& path,
                std::string* err) {
  const std::vector<std::uint8_t> bytes = encode(rec);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open " + path + " for writing";
    return false;
  }
  const bool ok =
      bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    if (err != nullptr) *err = "short write to " + path;
    return false;
  }
  return true;
}

bool read_file(const std::string& path, Recorder* out, std::string* err) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (err != nullptr) *err = "cannot open " + path;
    return false;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) {
    if (err != nullptr) *err = "read error on " + path;
    return false;
  }
  return decode(bytes.data(), bytes.size(), out, err);
}

}  // namespace pbecc::tel
