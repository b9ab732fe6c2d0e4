// CRC-16/CCITT over bit strings, used to protect DCI payloads in the
// synthetic control channel. LTE scrambles the DCI CRC with the target
// user's RNTI so only that user (or a PBE-CC-style monitor trying every
// RNTI hypothesis) validates it; we reproduce that masking.
//
// Also CRC-32 (IEEE 802.3, reflected) over byte buffers, used by the
// pbecc::cap trace format to detect truncated or corrupted chunks.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bitvec.h"

namespace pbecc::util {

// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over the bits of `bits`.
std::uint16_t crc16(const BitVec& bits);

// Same CRC over the `len` bits starting at `pos` — lets the decoder's
// CRC-first screen checksum a message's payload prefix in place instead of
// copying it out first. Bit-identical to crc16() on the copied range.
// Table-driven a byte at a time; throws std::out_of_range past the end.
std::uint16_t crc16_range(const BitVec& bits, std::size_t pos,
                          std::size_t len);

// CRC masked (xor-ed) with a 16-bit RNTI, as LTE does for DCI.
inline std::uint16_t crc16_rnti(const BitVec& bits, std::uint16_t rnti) {
  return crc16(bits) ^ rnti;
}

// CRC-32/ISO-HDLC (poly 0xEDB88320 reflected, init/xorout 0xFFFFFFFF) over
// `len` bytes — the standard zlib/Ethernet CRC. Streamable: pass the
// previous return value as `seed` to continue a running checksum.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

}  // namespace pbecc::util
