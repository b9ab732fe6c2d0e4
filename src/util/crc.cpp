#include "util/crc.h"

#include <array>
#include <stdexcept>

namespace pbecc::util {

std::uint16_t crc16(const BitVec& bits) {
  return crc16_range(bits, 0, bits.size());
}

namespace {

// CRC-16/CCITT-FALSE one byte at a time: entry b is the register update
// for input byte b (MSB first) against a zero register.
constexpr std::array<std::uint16_t, 256> make_crc16_table() {
  std::array<std::uint16_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i << 8;
    for (int k = 0; k < 8; ++k) {
      c = (c & 0x8000u) != 0 ? (c << 1) ^ 0x1021u : c << 1;
    }
    t[i] = static_cast<std::uint16_t>(c);
  }
  return t;
}
constexpr auto kCrc16Table = make_crc16_table();

std::uint16_t crc16_byte(std::uint16_t crc, std::uint64_t byte) {
  return static_cast<std::uint16_t>(
      (crc << 8) ^ kCrc16Table[((crc >> 8) ^ byte) & 0xFFu]);
}

}  // namespace

std::uint16_t crc16_range(const BitVec& bits, std::size_t pos,
                          std::size_t len) {
  if (pos > bits.size() || len > bits.size() - pos) {
    throw std::out_of_range("crc16_range");
  }
  std::uint16_t crc = 0xFFFF;
  std::size_t i = 0;
  for (; i + 64 <= len; i += 64) {
    const std::uint64_t v = bits.window(pos + i);
    for (int shift = 56; shift >= 0; shift -= 8) {
      crc = crc16_byte(crc, v >> shift);
    }
  }
  // The last partial word: whole bytes through the table, then the
  // remaining bits one at a time.
  std::uint64_t v = bits.window(pos + i);
  for (; i + 8 <= len; i += 8) {
    crc = crc16_byte(crc, v >> 56);
    v <<= 8;
  }
  for (; i < len; ++i) {
    const auto feedback =
        static_cast<std::uint32_t>(((crc >> 15) ^ (v >> 63)) & 1u);
    crc = static_cast<std::uint16_t>((crc << 1) ^ (0x1021u & (0u - feedback)));
    v <<= 1;
  }
  return crc;
}

namespace {

// CRC-32 slicing-by-8 (Kounavis & Berry, 2005): t[0] is the byte-at-a-time
// table, and t[k][b] is the register update for byte b followed by k zero
// bytes, so eight table lookups fold eight input bytes at once.
struct Crc32Tables {
  std::uint32_t t[8][256] = {};
  constexpr Crc32Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
  }
};
constexpr Crc32Tables kCrc32;

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto& t = kCrc32.t;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; --len) c = t[0][(c ^ *p++) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace pbecc::util
