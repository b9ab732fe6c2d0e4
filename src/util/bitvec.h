// A small append/read bit vector used for DCI message payloads and the
// synthetic PDCCH control region. Bits are stored MSB-first per message,
// matching how 3GPP describes DCI field packing.
//
// Storage is packed 64-bit words (DESIGN.md §14, "Packed bit plane"): bit
// i is bit 63 - i % 64 of word i / 64, so a run of bits reads as one
// shift-and-mask and to_bytes() is a big-endian store. Bits past size() in
// the last word are always zero, which makes operator== a word compare.
// The single-bit accessors and read_uint() are bounds-checked; the range
// operations (word, window, copy_range, write_range, xor_word, popcount,
// hamming) check their whole range once per call.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace pbecc::util {

class BitVec {
 public:
  static constexpr std::size_t kWordBits = 64;

  BitVec() = default;
  explicit BitVec(std::size_t nbits, bool value = false)
      : words_(words_for(nbits), value ? ~0ULL : 0ULL), n_(nbits) {
    clear_tail();
  }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  std::size_t num_words() const { return words_.size(); }

  void push_bit(bool b) {
    if (n_ % kWordBits == 0) words_.push_back(0);
    if (b) words_.back() |= top_bit() >> (n_ % kWordBits);
    ++n_;
  }

  // Drop all bits but keep the backing capacity — hot-path callers (the
  // blind decoder's candidate-span scratch) refill one reused vector per
  // candidate instead of allocating a fresh one.
  void clear() {
    words_.clear();
    n_ = 0;
  }
  void reserve(std::size_t nbits) { words_.reserve(words_for(nbits)); }

  // Append the low `nbits` (0..64) of `value`, most-significant bit first.
  void push_uint(std::uint64_t value, std::size_t nbits) {
    if (nbits > kWordBits) throw std::out_of_range("BitVec::push_uint");
    if (nbits == 0) return;
    const std::size_t pos = n_;
    n_ += nbits;
    if (words_.size() < words_for(n_)) words_.push_back(0);  // at most one
    store(pos, value << (kWordBits - nbits), nbits);
  }

  bool bit(std::size_t i) const {
    check_index(i);
    return (words_[i / kWordBits] & (top_bit() >> (i % kWordBits))) != 0;
  }
  void set_bit(std::size_t i, bool b) {
    check_index(i);
    const std::uint64_t m = top_bit() >> (i % kWordBits);
    std::uint64_t& w = words_[i / kWordBits];
    w = b ? (w | m) : (w & ~m);
  }
  void flip_bit(std::size_t i) {
    check_index(i);
    words_[i / kWordBits] ^= top_bit() >> (i % kWordBits);
  }

  // Read `nbits` (0..64) starting at `pos`, MSB-first, right-aligned.
  // Throws if out of range.
  std::uint64_t read_uint(std::size_t pos, std::size_t nbits) const {
    if (nbits > kWordBits || pos > n_ || nbits > n_ - pos) {
      throw std::out_of_range("BitVec::read_uint");
    }
    return nbits == 0 ? 0 : load(pos) >> (kWordBits - nbits);
  }

  // Word `w`: bits [64w, 64w + 64), bit 64w + k at bit 63 - k; bits past
  // size() read as zero.
  std::uint64_t word(std::size_t w) const {
    if (w >= words_.size()) throw std::out_of_range("BitVec::word");
    return words_[w];
  }

  // The 64 bits starting at `pos`, MSB-first and left-aligned; bits at or
  // past size() read as zero. Requires pos <= size().
  std::uint64_t window(std::size_t pos) const {
    if (pos > n_) throw std::out_of_range("BitVec::window");
    return load(pos);
  }

  // XOR `mask` into word `w`. The mask may not touch bits past size().
  void xor_word(std::size_t w, std::uint64_t mask) {
    if (w >= words_.size() || (mask & ~valid_mask(w)) != 0) {
      throw std::out_of_range("BitVec::xor_word");
    }
    words_[w] ^= mask;
  }

  // Replace `out` with the `len` bits starting at `pos` (reuses out's
  // capacity).
  void copy_range(std::size_t pos, std::size_t len, BitVec& out) const {
    check_range(pos, len, "BitVec::copy_range");
    out.words_.resize(words_for(len));
    out.n_ = len;
    for (std::size_t k = 0; k < out.words_.size(); ++k) {
      out.words_[k] = load(pos + k * kWordBits);
    }
    out.clear_tail();
  }

  // Overwrite bits [pos, pos + src.size()) with `src`.
  void write_range(std::size_t pos, const BitVec& src) {
    check_range(pos, src.n_, "BitVec::write_range");
    for (std::size_t k = 0; k < src.words_.size(); ++k) {
      const std::size_t off = k * kWordBits;
      const std::size_t n = std::min(kWordBits, src.n_ - off);
      store(pos + off, src.words_[k], n);
    }
  }

  // Set bits among the `len` starting at `pos`.
  std::size_t popcount(std::size_t pos, std::size_t len) const {
    check_range(pos, len, "BitVec::popcount");
    std::size_t ones = 0;
    for (std::size_t off = 0; off < len; off += kWordBits) {
      const std::size_t n = std::min(kWordBits, len - off);
      ones += static_cast<std::size_t>(
          std::popcount(load(pos + off) & head_mask(n)));
    }
    return ones;
  }

  // Positions where bits [pos, pos + other.size()) differ from `other`.
  std::size_t hamming(std::size_t pos, const BitVec& other) const {
    check_range(pos, other.n_, "BitVec::hamming");
    std::size_t diff = 0;
    for (std::size_t k = 0; k < other.words_.size(); ++k) {
      const std::size_t off = k * kWordBits;
      const std::size_t n = std::min(kWordBits, other.n_ - off);
      diff += static_cast<std::size_t>(std::popcount(
          (load(pos + off) & head_mask(n)) ^ other.words_[k]));
    }
    return diff;
  }

  void append(const BitVec& other) {
    const std::size_t pos = n_;
    n_ += other.n_;
    words_.resize(words_for(n_), 0);
    for (std::size_t k = 0; k < other.words_.size(); ++k) {
      const std::size_t off = k * kWordBits;
      store(pos + off, other.words_[k], std::min(kWordBits, other.n_ - off));
    }
  }

  // Pack to bytes, MSB-first within each byte, the final byte zero-padded —
  // the on-disk representation used by the pbecc::cap trace format. Whole
  // words are stored eight bytes at a time (big-endian), the last
  // ceil(size() / 8) mod 8 bytes one at a time.
  std::vector<std::uint8_t> to_bytes() const {
    std::vector<std::uint8_t> out((n_ + 7) / 8);
    const std::size_t whole = out.size() / 8;
    for (std::size_t w = 0; w < whole; ++w) {
      store_be(out.data() + 8 * w, words_[w]);
    }
    for (std::size_t i = 8 * whole; i < out.size(); ++i) {
      out[i] = static_cast<std::uint8_t>(words_[i / 8] >> (56 - 8 * (i % 8)));
    }
    return out;
  }

  // Inverse of to_bytes(): read `nbits` bits from a packed byte buffer
  // (which must hold at least ceil(nbits/8) bytes, and is read no further).
  // Padding bits past `nbits` in the final byte are ignored.
  static BitVec from_bytes(const std::uint8_t* data, std::size_t nbits) {
    BitVec v;
    v.words_.assign(words_for(nbits), 0);
    v.n_ = nbits;
    const std::size_t nbytes = (nbits + 7) / 8;
    const std::size_t whole = nbytes / 8;
    for (std::size_t w = 0; w < whole; ++w) {
      v.words_[w] = load_be(data + 8 * w);
    }
    for (std::size_t i = 8 * whole; i < nbytes; ++i) {
      v.words_[i / 8] |= static_cast<std::uint64_t>(data[i])
                         << (56 - 8 * (i % 8));
    }
    v.clear_tail();
    return v;
  }

  bool operator==(const BitVec&) const = default;

 private:
  static constexpr std::uint64_t top_bit() { return 1ULL << 63; }
  static constexpr std::size_t words_for(std::size_t nbits) {
    return (nbits + kWordBits - 1) / kWordBits;
  }
  // The top `n` (0..64) bits set.
  static constexpr std::uint64_t head_mask(std::size_t n) {
    return n == 0 ? 0 : ~0ULL << (kWordBits - n);
  }
  // The bits of word `w` that lie below size().
  std::uint64_t valid_mask(std::size_t w) const {
    return head_mask(std::min(kWordBits, n_ - w * kWordBits));
  }

  void check_index(std::size_t i) const {
    if (i >= n_) throw std::out_of_range("BitVec::bit");
  }
  void check_range(std::size_t pos, std::size_t len, const char* what) const {
    if (pos > n_ || len > n_ - pos) throw std::out_of_range(what);
  }

  // Eight bytes as one word, the first byte in the top bits.
  static std::uint64_t load_be(const std::uint8_t* p) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::little) {
      v = __builtin_bswap64(v);
    }
    return v;
  }
  static void store_be(std::uint8_t* p, std::uint64_t v) {
    if constexpr (std::endian::native == std::endian::little) {
      v = __builtin_bswap64(v);
    }
    std::memcpy(p, &v, sizeof v);
  }

  void clear_tail() {
    if (n_ % kWordBits != 0) words_.back() &= head_mask(n_ % kWordBits);
  }

  // 64 bits from `pos` (<= size()), left-aligned, zero past the storage.
  std::uint64_t load(std::size_t pos) const {
    const std::size_t w = pos / kWordBits;
    const std::size_t o = pos % kWordBits;
    if (w >= words_.size()) return 0;
    std::uint64_t v = words_[w] << o;
    if (o != 0 && w + 1 < words_.size()) v |= words_[w + 1] >> (kWordBits - o);
    return v;
  }

  // Write the top `n` (1..64) bits of `v` to bits [pos, pos + n), which
  // must lie inside size().
  void store(std::size_t pos, std::uint64_t v, std::size_t n) {
    const std::size_t w = pos / kWordBits;
    const std::size_t o = pos % kWordBits;
    const std::uint64_t m = head_mask(n);
    v &= m;
    words_[w] = (words_[w] & ~(m >> o)) | (v >> o);
    if (o + n > kWordBits) {
      const std::size_t s = kWordBits - o;
      words_[w + 1] = (words_[w + 1] & ~(m << s)) | (v << s);
    }
  }

  std::vector<std::uint64_t> words_;
  std::size_t n_ = 0;
};

}  // namespace pbecc::util
