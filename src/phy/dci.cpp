#include "phy/dci.h"

#include <stdexcept>

#include "util/crc.h"

namespace pbecc::phy {

namespace {

// Field widths shared by all formats.
// The 3-bit format tag makes messages self-identifying: real LTE
// disambiguates formats through exact length matching after rate matching,
// which our repetition-coded control region cannot reproduce — without the
// tag, a message read at the wrong format deterministically yields phantom
// decodes (wrong-format reads pass the CRC-residue test with fabricated
// RNTIs). See decoder::BlindDecoder.
constexpr std::size_t kFormatTagBits = 3;
constexpr std::size_t kMcsBits = 4;  // CQI 1..15
constexpr std::size_t kNdiBits = 1;

// PRB-allocation field width: LTE carriers top out at 100 PRBs (7 bits),
// NR bandwidth parts at 273 (9 bits).
constexpr std::size_t prb_field_bits(DciFormat f) {
  return is_nr_format(f) ? 9 : 7;
}

// HARQ-process field: 8 processes on LTE (3 bits), 16 on NR (4 bits).
constexpr std::size_t harq_field_bits(DciFormat f) {
  return is_nr_format(f) ? 4 : 3;
}

// Per-format padding to give each format a distinct total length;
// stands in for the fields (TPC, DAI, precoding info, ...) we don't model.
// NR paddings are chosen so no NR total collides with an LTE total
// (LTE: 30/34/42/53/49 bits, NR: 37/45/51) — collisions would be benign
// (the format tag disambiguates) but would let one span decode serve two
// formats, weakening the blind-search realism.
constexpr int format_padding(DciFormat f) {
  switch (f) {
    case DciFormat::kFormat0: return 5;
    case DciFormat::kFormat1A: return 9;
    case DciFormat::kFormat1: return 17;
    case DciFormat::kFormat2: return 27;
    case DciFormat::kFormat2A: return 23;
    case DciFormat::kNrFormat0_0: return 7;
    case DciFormat::kNrFormat1_0: return 15;
    case DciFormat::kNrFormat1_1: return 20;
  }
  return 0;
}

}  // namespace

int dci_payload_bits(DciFormat f) {
  // tag + start + nprb + mcs + harq + ndi (+ streams bit for MIMO) + padding
  const int base = static_cast<int>(kFormatTagBits + 2 * prb_field_bits(f) +
                                    kMcsBits + harq_field_bits(f) + kNdiBits);
  return base + (format_is_mimo(f) ? 1 : 0) + format_padding(f);
}

int dci_message_bits(DciFormat f) { return dci_payload_bits(f) + kDciCrcBits; }

void validate_dci(const Dci& d) {
  if (!format_is_mimo(d.format) && d.mcs.n_streams != 1) {
    throw std::invalid_argument("2-stream DCI requires format 2/2A/1_1");
  }
}

util::BitVec encode_dci(const Dci& d) {
  validate_dci(d);
  util::BitVec bits;
  bits.reserve(static_cast<std::size_t>(dci_message_bits(d.format)));
  bits.push_uint(static_cast<std::uint64_t>(d.format), kFormatTagBits);
  bits.push_uint(d.prb_start, prb_field_bits(d.format));
  bits.push_uint(d.n_prbs, prb_field_bits(d.format));
  bits.push_uint(static_cast<std::uint64_t>(d.mcs.cqi), kMcsBits);
  bits.push_uint(d.harq_id, harq_field_bits(d.format));
  bits.push_uint(d.new_data ? 1 : 0, kNdiBits);
  if (format_is_mimo(d.format)) {
    bits.push_uint(d.mcs.n_streams == 2 ? 1 : 0, 1);
  }
  bits.push_uint(0, static_cast<std::size_t>(format_padding(d.format)));

  const std::uint16_t crc = util::crc16_rnti(bits, d.rnti);
  bits.push_uint(crc, kDciCrcBits);
  return bits;
}

bool dci_crc_screen(const util::BitVec& bits, DciFormat format) {
  const auto payload_len = static_cast<std::size_t>(dci_payload_bits(format));
  if (bits.size() != static_cast<std::size_t>(dci_message_bits(format))) {
    return false;
  }
  const auto rx_crc =
      static_cast<std::uint16_t>(bits.read_uint(payload_len, kDciCrcBits));
  const auto rnti =
      static_cast<Rnti>(util::crc16_range(bits, 0, payload_len) ^ rx_crc);
  return rnti >= kMinCRnti && rnti <= kMaxCRnti;
}

std::optional<Dci> decode_dci(const util::BitVec& bits, DciFormat format,
                              int n_cell_prbs) {
  const auto payload_len = static_cast<std::size_t>(dci_payload_bits(format));
  if (bits.size() != static_cast<std::size_t>(dci_message_bits(format))) {
    return std::nullopt;
  }

  const auto rx_crc =
      static_cast<std::uint16_t>(bits.read_uint(payload_len, kDciCrcBits));
  const auto rnti =
      static_cast<Rnti>(util::crc16_range(bits, 0, payload_len) ^ rx_crc);
  if (rnti < kMinCRnti || rnti > kMaxCRnti) return std::nullopt;

  Dci d;
  d.rnti = rnti;
  d.format = format;
  std::size_t pos = 0;
  if (bits.read_uint(pos, kFormatTagBits) !=
      static_cast<std::uint64_t>(format)) {
    return std::nullopt;  // self-identification mismatch: not this format
  }
  pos += kFormatTagBits;
  const std::size_t prb_bits = prb_field_bits(format);
  const std::size_t harq_bits = harq_field_bits(format);
  d.prb_start = static_cast<std::uint16_t>(bits.read_uint(pos, prb_bits));
  pos += prb_bits;
  d.n_prbs = static_cast<std::uint16_t>(bits.read_uint(pos, prb_bits));
  pos += prb_bits;
  d.mcs.cqi = static_cast<int>(bits.read_uint(pos, kMcsBits));
  pos += kMcsBits;
  d.harq_id = static_cast<std::uint8_t>(bits.read_uint(pos, harq_bits));
  pos += harq_bits;
  d.new_data = bits.read_uint(pos, kNdiBits) != 0;
  pos += kNdiBits;
  d.mcs.n_streams = 1;
  if (format_is_mimo(format)) {
    d.mcs.n_streams = bits.read_uint(pos, 1) != 0 ? 2 : 1;
    pos += 1;
  }
  // Padding must be all-zero; a corrupted message that still passed the
  // CRC-RNTI plausibility test usually fails here.
  const auto padding = static_cast<std::size_t>(format_padding(format));
  if (bits.read_uint(pos, padding) != 0) return std::nullopt;

  // Structural validation against the cell geometry.
  if (d.mcs.cqi < 1 || d.mcs.cqi > 15) return std::nullopt;
  if (d.is_downlink()) {
    if (d.n_prbs == 0 || d.prb_start + d.n_prbs > n_cell_prbs) return std::nullopt;
  }
  return d;
}

}  // namespace pbecc::phy
