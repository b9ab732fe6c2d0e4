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

struct Crc32Table {
  std::uint32_t t[256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
  }
};

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  static const Crc32Table table;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table.t[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace pbecc::util
