#ifndef TSVIZ_ENCODING_VARINT_H_
#define TSVIZ_ENCODING_VARINT_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace tsviz {

// LEB128-style variable-length integers plus zigzag mapping for signed
// values. These are the primitives of the file footer and the timestamp
// codec.

void PutVarint64(std::string* dst, uint64_t value);
void PutVarint32(std::string* dst, uint32_t value);

// Decodes one varint from [p, limit) into *value and returns the byte after
// it, or nullptr when the input is truncated or over-long (more than ten
// bytes). The raw-pointer form of GetVarint64 for the timestamp codec's
// inner loop; one-byte varints never leave the inline fast path.
const char* DecodeVarint64Slow(const char* p, const char* limit,
                               uint64_t* value);
inline const char* DecodeVarint64(const char* p, const char* limit,
                                  uint64_t* value) {
  if (p < limit && (static_cast<uint8_t>(*p) & 0x80) == 0) {
    *value = static_cast<uint8_t>(*p);
    return p + 1;
  }
  return DecodeVarint64Slow(p, limit, value);
}

// Reads one varint from the front of *src, advancing it. Fails with
// kCorruption on truncated or over-long input.
Result<uint64_t> GetVarint64(std::string_view* src);
Result<uint32_t> GetVarint32(std::string_view* src);

inline uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

inline int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

inline void PutSignedVarint64(std::string* dst, int64_t value) {
  PutVarint64(dst, ZigZagEncode(value));
}

inline Result<int64_t> GetSignedVarint64(std::string_view* src) {
  TSVIZ_ASSIGN_OR_RETURN(uint64_t raw, GetVarint64(src));
  return ZigZagDecode(raw);
}

// Little-endian fixed-width helpers (file format primitives).
inline uint64_t DecodeFixed64(const char* p) {
  uint64_t value;
  std::memcpy(&value, p, sizeof(value));
  if constexpr (std::endian::native == std::endian::big) {
    value = __builtin_bswap64(value);
  }
  return value;
}

void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
Result<uint32_t> GetFixed32(std::string_view* src);
Result<uint64_t> GetFixed64(std::string_view* src);

// Length-prefixed byte string.
void PutLengthPrefixed(std::string* dst, std::string_view value);
Result<std::string_view> GetLengthPrefixed(std::string_view* src);

// FNV-1a 64-bit checksum of footers, WAL records and v01 data-file pages.
uint64_t Fnv1a64(std::string_view data);

}  // namespace tsviz

#endif  // TSVIZ_ENCODING_VARINT_H_
