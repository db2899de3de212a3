#ifndef TSVIZ_ENCODING_BIT_STREAM_H_
#define TSVIZ_ENCODING_BIT_STREAM_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace tsviz {

// Big-endian 64-bit load/store: bit streams are MSB-first, so the first
// stream byte is the most significant byte of a word.
inline uint64_t LoadBigEndian64(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::little) {
    word = __builtin_bswap64(word);
  }
  return word;
}

inline void StoreBigEndian64(uint64_t word, char* p) {
  if constexpr (std::endian::native == std::endian::little) {
    word = __builtin_bswap64(word);
  }
  std::memcpy(p, &word, sizeof(word));
}

// Returns the 64 stream bits of `data` (`size` bytes) that start at bit
// `pos`, MSB-first, with zeros past the end of the buffer. Requires
// pos <= size * 8. Callers check the end themselves, once per field, so a
// truncated field is caught by comparing positions, not by the zero fill.
inline uint64_t PeekBits64(const uint8_t* data, size_t size, size_t pos) {
  const size_t byte = pos >> 3;
  const unsigned offset = static_cast<unsigned>(pos & 7);
  if (byte + 8 < size) {
    // Nine readable bytes: the 64 bits may straddle into the ninth. With
    // offset 0 the ninth byte shifts out entirely (>> 8).
    return (LoadBigEndian64(data + byte) << offset) |
           (static_cast<uint64_t>(data[byte + 8]) >> (8 - offset));
  }
  // At most eight bytes remain, so they all fit in one word.
  uint64_t word = 0;
  for (size_t i = 0; byte + i < size; ++i) {
    word |= static_cast<uint64_t>(data[byte + i]) << (56 - 8 * i);
  }
  return word << offset;
}

// Append-only MSB-first bit writer over a byte buffer. Used by the Gorilla
// value codec, which emits sub-byte control codes. Bits collect in a 64-bit
// register that is emitted as eight bytes whenever it fills.
class BitWriter {
 public:
  BitWriter() = default;

  // Appends the lowest `bits` bits of `value` (bits in [0, 64]), most
  // significant bit first.
  void WriteBits(uint64_t value, int bits) {
    if (bits <= 0) return;
    if (bits < 64) value &= (uint64_t{1} << bits) - 1;
    bit_count_ += static_cast<size_t>(bits);
    const int free = 64 - pending_bits_;
    if (bits < free) {
      pending_ = (pending_ << bits) | value;
      pending_bits_ += bits;
      return;
    }
    // The register fills: emit it and keep the `rest` low bits of value.
    const int rest = bits - free;
    const uint64_t head = pending_bits_ == 0 ? 0 : pending_ << free;
    char word[8];
    StoreBigEndian64(head | (value >> rest), word);
    bytes_.append(word, sizeof(word));
    pending_ = rest == 0 ? 0 : value & ((uint64_t{1} << rest) - 1);
    pending_bits_ = rest;
  }
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  // Pads the current byte with zero bits and returns the buffer.
  std::string Finish();

  size_t bit_count() const { return bit_count_; }

 private:
  std::string bytes_;
  uint64_t pending_ = 0;  // the last pending_bits_ bits, right-aligned
  int pending_bits_ = 0;  // 0..63
  size_t bit_count_ = 0;
};

// MSB-first bit reader over a byte view. Reads past the end are reported via
// Status rather than undefined behaviour so corrupt pages fail cleanly.
class BitReader {
 public:
  explicit BitReader(std::string_view data) : data_(data) {}

  Result<uint64_t> ReadBits(int bits);
  Result<bool> ReadBit();

  size_t bits_consumed() const { return pos_; }
  size_t bits_remaining() const { return data_.size() * 8 - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;  // bit offset from the start of data_
};

}  // namespace tsviz

#endif  // TSVIZ_ENCODING_BIT_STREAM_H_
