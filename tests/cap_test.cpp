// pbecc::cap test suite (DESIGN.md §11): wire codec properties, .pbt
// round-trips, fail-closed behaviour on truncated/bit-flipped traces,
// trace surgery (cut/merge), a pinned golden-format digest, and the
// tentpole guarantee — record→replay digest equality across fault
// profiles and seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "cap/replay.h"
#include "cap/taps.h"
#include "cap/tools.h"
#include "cap/trace_reader.h"
#include "cap/trace_writer.h"
#include "decoder/blind_decoder.h"
#include "fault/fault.h"
#include "sim/location.h"
#include "util/digest.h"
#include "util/rng.h"

namespace pbecc {
namespace {

// Whole-file FNV-1a of a fixed synthetic trace; pinned by
// CapGolden.FormatDigestIsPinned. Changing the on-disk format requires a
// kFormatVersion bump alongside an update here.
constexpr std::uint64_t kGoldenFormatDigest = 0xb71cb82813050b54ull;

// --- helpers -------------------------------------------------------------

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "cap_test_" + name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  // An empty vector's data() may be null, which fwrite must not be given.
  if (!b.empty()) {
    ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), f), b.size());
  }
  std::fclose(f);
}

cap::TraceHeader sample_header(bool with_fault) {
  cap::TraceHeader h;
  h.own_rnti = 0x104;
  h.monitor_seed = 777;
  h.tracker.window = 60 * util::kMillisecond;
  h.tracker.min_active_subframes = 3;
  h.tracker.min_average_prbs = 5.5;
  if (with_fault) {
    h.fault_active = true;
    h.fault = *fault::profile_by_name("blackout");
    h.fault_seed = 42;
  }
  phy::CellConfig c1{1, 10.0, 1.94, phy::PdcchCoding::kRepetition};
  phy::CellConfig c2{2, 5.0, 2.63, phy::PdcchCoding::kConvolutional};
  h.cells = {c1, c2};
  return h;
}

cap::CellCapture random_cell(util::Rng& rng, phy::CellId id, int n_cces) {
  cap::CellCapture c;
  c.cell = id;
  c.n_cces = n_cces;
  c.coding = (rng.next_u64() & 1) ? phy::PdcchCoding::kConvolutional
                                  : phy::PdcchCoding::kRepetition;
  c.control_ber = rng.uniform(0.0, 0.01);
  c.bits_per_prb = rng.uniform(100.0, 700.0);
  for (int i = 0; i < n_cces * phy::kBitsPerCce; ++i) {
    c.bits.push_bit((rng.next_u64() & 1) != 0);
  }
  for (int i = 0; i < n_cces; ++i) c.cce_used.push_bit((rng.next_u64() & 3) != 0);
  return c;
}

// A randomized mixed-kind record stream shaped like a real capture:
// strictly increasing batch subframes, and timed records sandwiched
// between the subframes of their surrounding batches, so the stream is
// globally time-ordered (what cut/merge rely on).
std::vector<cap::Record> random_records(util::Rng& rng, int n) {
  std::vector<cap::Record> recs;
  std::int64_t sf = rng.uniform_int(0, 100);  // next batch's subframe
  util::Time t = util::subframe_start(sf);
  std::int64_t last_sf = sf;
  for (int i = 0; i < n; ++i) {
    cap::Record rec;
    const auto pick = rng.uniform_int(0, 9);
    if (pick < 6) {
      rec.kind = cap::Record::Kind::kBatch;
      rec.batch.sf_index = sf;
      last_sf = sf;
      sf += rng.uniform_int(1, 5);
      const int n_cells = static_cast<int>(rng.uniform_int(1, 3));
      for (int c = 0; c < n_cells; ++c) {
        auto cell = random_cell(rng, static_cast<phy::CellId>(c + 1),
                                static_cast<int>(rng.uniform_int(1, 84)));
        cell.sf_index = rec.batch.sf_index;  // 1 ms clock (LTE cells)
        rec.batch.cells.push_back(std::move(cell));
      }
    } else {
      t = std::clamp(t + rng.uniform_int(0, 2000),
                     util::subframe_start(last_sf), util::subframe_start(sf));
      if (pick < 8) {
        rec.kind = cap::Record::Kind::kWindow;
        rec.window.t = t;
        rec.window.window = rng.uniform_int(20, 400) * util::kMillisecond;
      } else {
        rec.kind = cap::Record::Kind::kProbe;
        rec.probe.t = t;
      }
    }
    recs.push_back(std::move(rec));
  }
  return recs;
}

void expect_record_eq(const cap::Record& a, const cap::Record& b) {
  ASSERT_EQ(a.kind, b.kind);
  switch (a.kind) {
    case cap::Record::Kind::kBatch:
      EXPECT_EQ(a.batch, b.batch);
      break;
    case cap::Record::Kind::kWindow:
      EXPECT_EQ(a.window, b.window);
      break;
    case cap::Record::Kind::kProbe:
      EXPECT_EQ(a.probe, b.probe);
      break;
  }
}

// --- wire codec ----------------------------------------------------------

TEST(CapWire, VarintRoundTripBoundaries) {
  const std::uint64_t cases[] = {0, 1, 127, 128, 16383, 16384,
                                 0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull};
  for (std::uint64_t v : cases) {
    cap::ByteWriter w;
    w.put_varint(v);
    cap::ByteReader r(w.buf().data(), w.size());
    EXPECT_EQ(r.get_varint(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end());
  }
}

TEST(CapWire, SvarintRoundTripBoundaries) {
  const std::int64_t cases[] = {0, 1, -1, 63, -64, 64, -65,
                                INT64_MAX, INT64_MIN};
  for (std::int64_t v : cases) {
    cap::ByteWriter w;
    w.put_svarint(v);
    cap::ByteReader r(w.buf().data(), w.size());
    EXPECT_EQ(r.get_svarint(), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST(CapWire, VarintRandomRoundTrip) {
  util::Rng rng(11);
  cap::ByteWriter w;
  std::vector<std::uint64_t> vals;
  std::vector<std::int64_t> svals;
  for (int i = 0; i < 2000; ++i) {
    // Mix magnitudes so every LEB128 length is exercised.
    const int shift = static_cast<int>(rng.uniform_int(0, 63));
    vals.push_back(rng.next_u64() >> shift);
    svals.push_back(static_cast<std::int64_t>(rng.next_u64() >> shift) *
                    ((rng.next_u64() & 1) ? 1 : -1));
    w.put_varint(vals.back());
    w.put_svarint(svals.back());
  }
  cap::ByteReader r(w.buf().data(), w.size());
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(r.get_varint(), vals[static_cast<std::size_t>(i)]);
    EXPECT_EQ(r.get_svarint(), svals[static_cast<std::size_t>(i)]);
  }
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(CapWire, TruncatedVarintFailsClosed) {
  cap::ByteWriter w;
  w.put_varint(0xFFFFFFFFFFFFFFFFull);
  // Drop the final byte: every remaining byte has the continuation bit.
  cap::ByteReader r(w.buf().data(), w.size() - 1);
  r.get_varint();
  EXPECT_FALSE(r.ok());
}

TEST(CapWire, OverlongVarintFailsClosed) {
  // 11 continuation bytes: no valid 64-bit varint is this long.
  std::vector<std::uint8_t> bytes(11, 0x80);
  bytes.push_back(0x00);
  cap::ByteReader r(bytes.data(), bytes.size());
  r.get_varint();
  EXPECT_FALSE(r.ok());
}

// --- header / record codec ----------------------------------------------

TEST(CapFormat, HeaderRoundTrip) {
  for (bool with_fault : {false, true}) {
    const auto h = sample_header(with_fault);
    cap::ByteWriter w;
    cap::encode_header(h, w);
    cap::ByteReader r(w.buf().data(), w.size());
    cap::TraceHeader back;
    std::string err;
    ASSERT_TRUE(cap::decode_header(r, back, err)) << err;
    EXPECT_EQ(h, back);
    EXPECT_TRUE(r.at_end());
  }
}

TEST(CapFormat, RecordStreamRandomRoundTrip) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    util::Rng rng(seed);
    const auto recs = random_records(rng, 200);
    cap::ByteWriter w;
    cap::DeltaState enc{};
    for (const auto& rec : recs) cap::encode_record(rec, enc, w);

    cap::ByteReader r(w.buf().data(), w.size());
    cap::DeltaState dec{};
    for (const auto& rec : recs) {
      cap::Record back;
      std::string err;
      ASSERT_TRUE(cap::decode_record(r, dec, back, err)) << err;
      expect_record_eq(rec, back);
    }
    EXPECT_TRUE(r.at_end());
  }
}

// One rule for a short energy map (phy::energy_word): a CCE past its end
// counts as energized. A region whose map stops short is noised, decoded
// and recorded exactly like the same region with the missing CCEs set.
TEST(CapFormat, ShortEnergyMapActsLikeTheRestSet) {
  phy::CellConfig nr{2, 20.0};
  nr.rat = phy::Rat::kNr;
  nr.scs = nr::Scs::k30kHz;
  nr.coreset = {48, 2};
  nr.pdcch_coding = phy::PdcchCoding::kPolar;
  for (const phy::CellConfig& cell : {phy::CellConfig{1, 20.0}, nr}) {
    const bool is_nr = cell.rat == phy::Rat::kNr;
    const phy::DciFormat* formats =
        is_nr ? phy::kNrDciFormats : phy::kLteDciFormats;
    const std::size_t n_formats =
        is_nr ? std::size(phy::kNrDciFormats) : std::size(phy::kLteDciFormats);
    phy::PdcchBuilder b(cell, 9);
    // Enough messages that some sit past every cut below.
    for (int i = 0; i < 64; ++i) {
      phy::Dci d;
      d.rnti = static_cast<phy::Rnti>(0x500 + i);
      d.format = formats[static_cast<std::size_t>(i) % n_formats];
      d.prb_start = static_cast<std::uint16_t>(i % 10);
      d.n_prbs = static_cast<std::uint16_t>(1 + i % 8);
      d.mcs = {5, phy::format_is_mimo(d.format) ? 2 : 1};
      b.add_escalating(d, 1 << (i % 4));
    }
    const phy::PdcchSubframe built = std::move(b).build();
    const std::size_t n = built.cce_used.size();
    for (const std::size_t cut : {std::size_t{0}, std::size_t{1}, n / 3, n - 1}) {
      phy::PdcchSubframe cut_map = built;
      built.cce_used.copy_range(0, cut, cut_map.cce_used);
      phy::PdcchSubframe set = built;
      for (std::size_t c = cut; c < n; ++c) set.cce_used.set_bit(c, true);

      util::Rng r1{cut + 1};
      util::Rng r2{cut + 1};
      phy::apply_bit_noise(cut_map, 0.01, r1);
      phy::apply_bit_noise(set, 0.01, r2);
      EXPECT_EQ(cut_map.bits, set.bits) << "cell " << cell.id << " cut " << cut;
      EXPECT_EQ(r1.next_u64(), r2.next_u64());

      decoder::BlindDecoder d1{cell};
      decoder::BlindDecoder d2{cell};
      const auto m1 = d1.decode(cut_map);
      EXPECT_FALSE(m1.empty()) << "cell " << cell.id << " cut " << cut;
      EXPECT_EQ(m1, d2.decode(set)) << "cell " << cell.id << " cut " << cut;
      EXPECT_EQ(d1.stats(), d2.stats()) << "cell " << cell.id << " cut " << cut;

      std::vector<std::uint8_t> bytes[2];
      const phy::PdcchSubframe* sfs[2] = {&cut_map, &set};
      for (int k = 0; k < 2; ++k) {
        cap::Record rec;
        rec.batch.sf_index =
            sfs[k]->sf_index / (util::kSubframe / sfs[k]->tick);
        cap::CellCapture c;
        c.cell = cell.id;
        c.sf_index = sfs[k]->sf_index;
        c.tick = sfs[k]->tick;
        c.n_cces = sfs[k]->n_cces;
        c.coding = sfs[k]->coding;
        c.bits = sfs[k]->bits;
        c.cce_used = sfs[k]->cce_used;
        rec.batch.cells.push_back(c);
        cap::ByteWriter w;
        cap::DeltaState enc{};
        cap::encode_record(rec, enc, w);
        bytes[k] = w.buf();
        cap::ByteReader r(w.buf().data(), w.size());
        cap::DeltaState dec{};
        cap::Record back;
        std::string err;
        ASSERT_TRUE(cap::decode_record(r, dec, back, err)) << err;
        ASSERT_EQ(back.batch.cells.size(), 1u);
        EXPECT_EQ(back.batch.cells[0].cce_used, set.cce_used)
            << "cell " << cell.id << " cut " << cut << " map " << k;
      }
      EXPECT_EQ(bytes[0], bytes[1]) << "cell " << cell.id << " cut " << cut;
    }
  }
}

// --- file round-trip -----------------------------------------------------

TEST(CapTrace, FileRoundTripAcrossChunks) {
  const auto path = tmp_path("roundtrip.pbt");
  util::Rng rng(7);
  const auto recs = random_records(rng, 700);  // > 2 chunks at 256/chunk

  cap::TraceWriter writer(path, /*chunk_records=*/256);
  writer.begin(sample_header(true));
  for (const auto& rec : recs) {
    switch (rec.kind) {
      case cap::Record::Kind::kBatch:
        writer.record_batch(rec.batch);
        break;
      case cap::Record::Kind::kWindow:
        writer.record_window(rec.window.t, rec.window.window);
        break;
      case cap::Record::Kind::kProbe:
        writer.record_probe(rec.probe.t);
        break;
    }
  }
  ASSERT_TRUE(writer.close()) << writer.error();
  EXPECT_EQ(writer.records_written(), recs.size());

  cap::TraceReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.header(), sample_header(true));
  cap::Record back;
  for (const auto& rec : recs) {
    ASSERT_TRUE(reader.next(back)) << reader.error();
    expect_record_eq(rec, back);
  }
  EXPECT_FALSE(reader.next(back));
  EXPECT_TRUE(reader.ok()) << reader.error();  // clean EOF, not damage
  EXPECT_GT(reader.chunks_read(), 1u);
  std::remove(path.c_str());
}

// --- fail-closed ---------------------------------------------------------

// Writes a small valid trace and returns its bytes.
std::vector<std::uint8_t> valid_trace_bytes(const std::string& path) {
  util::Rng rng(5);
  const auto recs = random_records(rng, 300);
  cap::TraceWriter writer(path, 64);
  writer.begin(sample_header(false));
  for (const auto& rec : recs) {
    if (rec.kind == cap::Record::Kind::kBatch) writer.record_batch(rec.batch);
    if (rec.kind == cap::Record::Kind::kWindow) {
      writer.record_window(rec.window.t, rec.window.window);
    }
    if (rec.kind == cap::Record::Kind::kProbe) writer.record_probe(rec.probe.t);
  }
  EXPECT_TRUE(writer.close()) << writer.error();
  return read_file(path);
}

// Drain a reader; returns how many records were served before it stopped.
std::uint64_t drain(cap::TraceReader& reader) {
  cap::Record rec;
  while (reader.next(rec)) {
  }
  return reader.records_read();
}

TEST(CapFailClosed, TruncationAtEveryRegionReportsError) {
  const auto path = tmp_path("trunc.pbt");
  const auto bytes = valid_trace_bytes(path);
  // Representative truncation points: inside the fixed header, inside the
  // header payload, inside chunk framing, mid-chunk-payload, and one byte
  // short of the end.
  const std::size_t cuts[] = {3,  9,  bytes.size() / 4, bytes.size() / 2,
                              bytes.size() - 1};
  for (std::size_t cut : cuts) {
    write_file(path, {bytes.begin(), bytes.begin() + static_cast<long>(cut)});
    cap::TraceReader reader(path);
    drain(reader);
    EXPECT_FALSE(reader.ok()) << "cut at " << cut << " went undetected";
    EXPECT_FALSE(reader.error().empty());
  }
  std::remove(path.c_str());
}

TEST(CapFailClosed, BitFlipAnywhereIsDetected) {
  const auto path = tmp_path("flip.pbt");
  const auto bytes = valid_trace_bytes(path);
  // Flip one bit in several spots spanning header and chunk payloads. A
  // CRC (header or chunk) must catch every one of them.
  for (std::size_t pos : {std::size_t{8}, std::size_t{20}, bytes.size() / 3,
                          bytes.size() / 2, bytes.size() - 10}) {
    auto corrupted = bytes;
    corrupted[pos] ^= 0x10;
    write_file(path, corrupted);
    cap::TraceReader reader(path);
    drain(reader);
    EXPECT_FALSE(reader.ok()) << "flip at byte " << pos << " went undetected";
  }
  std::remove(path.c_str());
}

TEST(CapFailClosed, ValidPrefixIsServedBeforeDamage) {
  const auto path = tmp_path("prefix.pbt");
  const auto bytes = valid_trace_bytes(path);
  // Corrupt only the final chunk: everything before it must still decode.
  auto corrupted = bytes;
  corrupted[bytes.size() - 5] ^= 0xFF;
  write_file(path, corrupted);
  cap::TraceReader reader(path);
  const auto served = drain(reader);
  EXPECT_FALSE(reader.ok());
  EXPECT_GT(served, 0u);
  std::remove(path.c_str());
}

TEST(CapFailClosed, BadMagicAndFutureVersion) {
  const auto path = tmp_path("magic.pbt");
  const auto bytes = valid_trace_bytes(path);

  auto bad_magic = bytes;
  bad_magic[0] = 'X';
  write_file(path, bad_magic);
  {
    cap::TraceReader reader(path);
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("magic"), std::string::npos);
  }

  // A future version and the retired version 1 are both refused.
  for (const std::uint8_t version : {std::uint8_t{99}, std::uint8_t{1}}) {
    auto other = bytes;
    other[4] = version;  // version u16 little-endian low byte
    write_file(path, other);
    cap::TraceReader reader(path);
    EXPECT_FALSE(reader.ok()) << "version " << int{version};
    EXPECT_NE(reader.error().find("version"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(CapFailClosed, EmptyAndGarbageFiles) {
  const auto path = tmp_path("garbage.pbt");
  write_file(path, {});
  {
    cap::TraceReader reader(path);
    EXPECT_FALSE(reader.ok());
  }
  write_file(path, std::vector<std::uint8_t>(64, 0xAB));
  {
    cap::TraceReader reader(path);
    EXPECT_FALSE(reader.ok());
  }
  std::remove(path.c_str());
}

// --- golden format digest ------------------------------------------------

// Pins the on-disk byte stream: any change to the wire format, header
// layout, chunking or CRC must bump kFormatVersion — this test failing
// without a version bump means old traces silently changed meaning.
std::uint64_t golden_stream_digest() {
  const auto path = tmp_path("golden.pbt");
  util::Rng rng(1234);
  cap::TraceWriter writer(path, 16);
  writer.begin(sample_header(true));
  for (const auto& rec : random_records(rng, 64)) {
    if (rec.kind == cap::Record::Kind::kBatch) writer.record_batch(rec.batch);
    if (rec.kind == cap::Record::Kind::kWindow) {
      writer.record_window(rec.window.t, rec.window.window);
    }
    if (rec.kind == cap::Record::Kind::kProbe) writer.record_probe(rec.probe.t);
  }
  EXPECT_TRUE(writer.close()) << writer.error();
  const auto bytes = read_file(path);
  std::remove(path.c_str());
  return util::fnv1a64(bytes.data(), bytes.size());
}

TEST(CapGolden, FormatDigestIsPinned) {
  const std::uint64_t digest = golden_stream_digest();
  EXPECT_EQ(digest, kGoldenFormatDigest)
      << "on-disk format changed: bump cap::kFormatVersion and update "
         "this digest (got 0x" << std::hex << digest << ")";
}

// --- trace surgery (cut / merge / verify) --------------------------------

std::vector<cap::Record> read_all(const std::string& path) {
  cap::TraceReader reader(path);
  EXPECT_TRUE(reader.ok()) << reader.error();
  std::vector<cap::Record> recs;
  cap::Record rec;
  while (reader.next(rec)) recs.push_back(rec);
  EXPECT_TRUE(reader.ok()) << reader.error();
  return recs;
}

TEST(CapTools, CutThenMergeReassemblesTheStream) {
  const auto full = tmp_path("surgery_full.pbt");
  const auto lo = tmp_path("surgery_lo.pbt");
  const auto hi = tmp_path("surgery_hi.pbt");
  const auto merged = tmp_path("surgery_merged.pbt");
  valid_trace_bytes(full);

  cap::TraceSummary s;
  std::string err;
  ASSERT_TRUE(cap::verify(full, s, err)) << err;
  const std::int64_t mid = (s.first_sf + s.last_sf) / 2;
  // The synthetic stream's timed records are not bound to the batch range,
  // so span both when slicing.
  const std::int64_t lo_from =
      std::min<std::int64_t>(s.first_sf, util::subframe_index(s.first_t));
  const std::int64_t hi_to =
      std::max<std::int64_t>(s.last_sf, util::subframe_index(s.last_t));

  ASSERT_TRUE(cap::cut(full, lo, lo_from, mid, err)) << err;
  ASSERT_TRUE(cap::cut(full, hi, mid + 1, hi_to, err)) << err;
  ASSERT_TRUE(cap::merge({lo, hi}, merged, err)) << err;

  const auto orig = read_all(full);
  const auto back = read_all(merged);
  ASSERT_EQ(orig.size(), back.size());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    expect_record_eq(orig[i], back[i]);
  }
  cap::TraceSummary ms;
  ASSERT_TRUE(cap::verify(merged, ms, err)) << err;
  EXPECT_EQ(ms.records, s.records);

  for (const auto& p : {full, lo, hi, merged}) std::remove(p.c_str());
}

TEST(CapTools, MergeRejectsMismatchedHeaders) {
  const auto a = tmp_path("merge_a.pbt");
  const auto b = tmp_path("merge_b.pbt");
  const auto out = tmp_path("merge_out.pbt");
  {
    cap::TraceWriter w(a);
    w.begin(sample_header(false));
    w.record_probe(1000);
    ASSERT_TRUE(w.close());
  }
  {
    cap::TraceWriter w(b);
    w.begin(sample_header(true));  // different config
    w.record_probe(2000);
    ASSERT_TRUE(w.close());
  }
  std::string err;
  EXPECT_FALSE(cap::merge({a, b}, out, err));
  EXPECT_NE(err.find("header"), std::string::npos);
  for (const auto& p : {a, b, out}) std::remove(p.c_str());
}

// summarize() reports the version the file header carries (trace_tool
// info prints it).
TEST(CapTools, SummaryCarriesTheFileVersion) {
  const auto path = tmp_path("summary.pbt");
  {
    cap::TraceWriter w(path, 16);
    w.begin(sample_header(false));
    w.record_probe(1000);
    ASSERT_TRUE(w.close()) << w.error();
  }
  cap::TraceSummary s;
  std::string err;
  ASSERT_TRUE(cap::summarize(path, s, err)) << err;
  EXPECT_EQ(s.version, cap::kFormatVersion);
  EXPECT_EQ(s.probes, 1u);
  std::remove(path.c_str());
}

// --- record → replay fidelity (the tentpole guarantee) -------------------

struct LiveCapture {
  cap::PipelineDigest digest;
  double tput = 0;
  std::uint64_t attempts = 0;
};

LiveCapture record_live(const std::string& profile_name, std::uint64_t seed,
                        const std::string& trace_path,
                        const std::string& algo = "pbe") {
  auto loc = sim::location(26);  // 3-cell busy indoor
  loc.seed = seed;
  const auto profile = *fault::profile_by_name(profile_name);

  cap::TraceWriter writer(trace_path);
  LiveCapture out;
  sim::CaptureOptions capture{&writer, &out.digest};
  const auto r =
      sim::run_location(loc, algo, 2 * util::kSecond,
                        profile.active() ? &profile : nullptr,
                        /*fault_seed=*/3, capture);
  EXPECT_TRUE(writer.close()) << writer.error();
  out.tput = r.avg_tput_mbps;
  out.attempts = r.decode_candidates;
  return out;
}

cap::PipelineDigest replay_trace(const std::string& trace_path) {
  cap::TraceReader reader(trace_path);
  EXPECT_TRUE(reader.ok()) << reader.error();
  cap::PipelineDigest digest;
  cap::ReplayDriver driver(reader.header(), &digest);
  driver.run(reader);
  EXPECT_TRUE(reader.ok()) << reader.error();
  return digest;
}

class CapFidelityTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

// Replay has no thread count to vary: it decodes on the calling thread.
TEST_P(CapFidelityTest, ReplayMatchesLivePipelineAtAnyThreadCount) {
  const auto& [profile, seed] = GetParam();
  const auto path = tmp_path("fidelity_" + profile + "_" +
                             std::to_string(seed) + ".pbt");

  const auto live = record_live(profile, seed, path);
  EXPECT_GT(live.digest.observations(), 0u);
  EXPECT_GT(live.digest.probes(), 0u);

  const auto replayed = replay_trace(path);

  // Field-by-field first so a failure names the divergent stream.
  EXPECT_EQ(live.digest.observations(), replayed.observations());
  EXPECT_EQ(live.digest.probes(), replayed.probes());
  EXPECT_EQ(live.digest.observation_digest(), replayed.observation_digest());
  EXPECT_EQ(live.digest.probe_digest(), replayed.probe_digest());
  EXPECT_TRUE(live.digest == replayed);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndSeeds, CapFidelityTest,
    ::testing::Combine(::testing::Values("none", "blackout", "handover-storm"),
                       ::testing::Values(1ull, 2ull, 3ull)),
    [](const auto& info) {
      auto name = std::get<0>(info.param);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

// Hybrid lane: the blended sender shapes the traffic the monitor observes
// (different pacing -> different grants -> different capture stream), so
// its recordings must replay to the same digests too — under the profile
// that swings the blend weight hardest.
TEST(CapFidelity, HybridRecordReplayAcrossThreadCounts) {
  const auto path = tmp_path("fidelity_hybrid.pbt");
  const auto live = record_live("blackout", 2, path, "hybrid");
  EXPECT_GT(live.digest.observations(), 0u);
  EXPECT_GT(live.digest.probes(), 0u);

  EXPECT_TRUE(live.digest == replay_trace(path));
  std::remove(path.c_str());
}

// Capture must be passive: the taps may not perturb the simulation they
// observe. (They only read const channel state and copy pipeline outputs.)
TEST(CapFidelity, RecordingDoesNotPerturbTheRun) {
  auto loc = sim::location(26);
  loc.seed = 9;

  const auto bare = sim::run_location(loc, "pbe", 2 * util::kSecond);

  const auto path = tmp_path("passive.pbt");
  cap::TraceWriter writer(path);
  cap::PipelineDigest digest;
  sim::CaptureOptions capture{&writer, &digest};
  const auto taped =
      sim::run_location(loc, "pbe", 2 * util::kSecond, nullptr, 1, capture);
  ASSERT_TRUE(writer.close()) << writer.error();

  EXPECT_EQ(bare.avg_tput_mbps, taped.avg_tput_mbps);
  EXPECT_EQ(bare.avg_delay_ms, taped.avg_delay_ms);
  EXPECT_EQ(bare.p95_delay_ms, taped.p95_delay_ms);
  EXPECT_EQ(bare.decode_candidates, taped.decode_candidates);
  std::remove(path.c_str());
}

// A recorded trace must carry the fault schedule: replay reconstructs the
// injector from the header, so header fields are load-bearing.
TEST(CapFidelity, HeaderCarriesTheFaultSchedule) {
  const auto path = tmp_path("faulthdr.pbt");
  record_live("blackout", 1, path);
  cap::TraceReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_TRUE(reader.header().fault_active);
  EXPECT_EQ(reader.header().fault_seed, 3u);
  EXPECT_EQ(reader.header().cells.size(), 3u);
  EXPECT_EQ(reader.header().own_rnti, 0x101);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pbecc
