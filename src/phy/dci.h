// Downlink Control Information (DCI) messages and their bit-level wire
// format on the synthetic control channel.
//
// 3GPP defines ten DCI formats; the base station never announces which
// format a message uses, so monitors (and the phone itself) blind-decode by
// trying every format at every search-space candidate (paper §5, footnote 2).
// We carry the fields PBE-CC's algorithm actually consumes — RNTI, PRB
// allocation, MCS, spatial streams, HARQ process and new-data indicator —
// in formats of genuinely different bit lengths so the blind search is real.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "phy/cell_config.h"
#include "phy/mcs.h"
#include "util/bitvec.h"

namespace pbecc::phy {

// A subset of 3GPP 36.212 DCI formats that differ in payload size.
// Format0 is an uplink grant (present on the channel, ignored by the
// downlink capacity monitor); 1A is the compact downlink allocation;
// 1 the full bitmap allocation; 2/2A carry MIMO (2-stream) allocations.
// Formats 5-7 are the 38.212 NR set: 0_0 the fallback uplink grant, 1_0
// the fallback downlink allocation, 1_1 the full (MIMO-capable) downlink
// allocation. NR formats widen the PRB fields to 9 bits (bandwidth parts
// reach 273 PRBs) and the HARQ field to 4 bits; an LTE cell never carries
// them and an NR cell never carries the LTE formats, so each RAT's blind
// search stays confined to its own format list.
enum class DciFormat : std::uint8_t {
  kFormat0 = 0,      // LTE uplink grant
  kFormat1A = 1,     // LTE compact downlink, 1 stream
  kFormat1 = 2,      // LTE full downlink, 1 stream
  kFormat2 = 3,      // LTE downlink MIMO, up to 2 streams
  kFormat2A = 4,     // LTE downlink MIMO (open loop), up to 2 streams
  kNrFormat0_0 = 5,  // NR uplink grant
  kNrFormat1_0 = 6,  // NR fallback downlink, 1 stream
  kNrFormat1_1 = 7,  // NR downlink, up to 2 streams
};

inline constexpr int kNumDciFormats = 8;

// The blind-decode format list per RAT (pointers into static arrays).
// LTE cells try exactly the five 36.212 formats — byte-identical with the
// pre-NR decoder — and NR cells exactly the three 38.212 ones.
inline constexpr DciFormat kLteDciFormats[] = {
    DciFormat::kFormat0, DciFormat::kFormat1A, DciFormat::kFormat1,
    DciFormat::kFormat2, DciFormat::kFormat2A};
inline constexpr DciFormat kNrDciFormats[] = {
    DciFormat::kNrFormat0_0, DciFormat::kNrFormat1_0, DciFormat::kNrFormat1_1};

constexpr bool is_nr_format(DciFormat f) {
  return f == DciFormat::kNrFormat0_0 || f == DciFormat::kNrFormat1_0 ||
         f == DciFormat::kNrFormat1_1;
}

// Formats that carry a two-stream (MIMO) allocation and therefore a
// second-stream MCS field.
constexpr bool format_is_mimo(DciFormat f) {
  return f == DciFormat::kFormat2 || f == DciFormat::kFormat2A ||
         f == DciFormat::kNrFormat1_1;
}

// Payload bit length of each format (excluding the CRC). Distinct lengths
// are what force a real blind search. All under the 70-bit bound the paper
// cites for control messages (§7).
int dci_payload_bits(DciFormat f);

// Width of the RNTI-masked CRC appended to every payload.
inline constexpr int kDciCrcBits = 16;

// On-air length of a `format` message, payload plus CRC: what encode_dci()
// emits, what the control region must carry and what the blind decoder
// tries at each candidate.
int dci_message_bits(DciFormat f);

struct Dci {
  Rnti rnti = 0;
  DciFormat format = DciFormat::kFormat1A;
  bool is_downlink() const {
    return format != DciFormat::kFormat0 && format != DciFormat::kNrFormat0_0;
  }

  // Resource allocation: contiguous for our scheduler.
  std::uint16_t prb_start = 0;
  std::uint16_t n_prbs = 0;

  Mcs mcs{};                    // CQI-equivalent MCS + stream count
  std::uint8_t harq_id = 0;     // 0..7
  bool new_data = true;         // NDI: toggled for new TBs, kept for retx

  bool operator==(const Dci&) const = default;
};

// Throws std::invalid_argument if `d` cannot be encoded: a two-stream MCS
// in a format without a second-stream field. The only check encode_dci()
// makes; PdcchBuilder::add() applies it before placing a message.
void validate_dci(const Dci& d);

// Serialize to payload bits (MSB-first fields) + RNTI-masked CRC, in all
// dci_message_bits(format) bits. Validates `d` first (validate_dci).
util::BitVec encode_dci(const Dci& d);

// Attempt to parse `bits` as a `format` message. Checks structural
// validity (field ranges vs `n_cell_prbs`) and returns the message with the
// RNTI recovered from the CRC mask; returns nullopt if the CRC residue is
// not a plausible C-RNTI or fields are out of range. The caller layers
// further RNTI plausibility filtering on top (see decoder::RntiTracker).
std::optional<Dci> decode_dci(const util::BitVec& bits, DciFormat format,
                              int n_cell_prbs);

// CRC-first cheap screen: evaluates exactly the length and CRC-residue
// plausibility checks decode_dci() applies first, without building the
// payload copy or parsing any field. Returns false only when decode_dci()
// is guaranteed to return nullopt, so callers may skip it entirely —
// stat-for-stat identical, an order of magnitude cheaper on the (typical)
// garbage candidate. Used by the batched blind-decode path (DESIGN.md §14).
bool dci_crc_screen(const util::BitVec& bits, DciFormat format);

}  // namespace pbecc::phy
