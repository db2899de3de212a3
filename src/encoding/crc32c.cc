#include "encoding/crc32c.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace tsviz {

namespace {

constexpr uint32_t kPolynomial = 0x82F63B78u;  // reflected Castagnoli

// kTables[k][b] is the CRC register after byte b is followed by k zero
// bytes, so one 8-byte word costs eight independent lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (kPolynomial & (0u - (crc & 1u)));
    }
    tables[0][b] = crc;
  }
  for (uint32_t b = 0; b < 256; ++b) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = tables[k - 1][b];
      tables[k][b] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

uint64_t LoadLittleEndian64(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

#if defined(__x86_64__)

__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(
    std::string_view data) {
  const char* p = data.data();
  size_t n = data.size();
  uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    crc = _mm_crc32_u64(crc, LoadLittleEndian64(p));
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*p));
  }
  return ~crc32;
}

bool DetectSse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

// Dynamically initialized; a call made before that (from another static
// initializer) sees false and takes the portable path, which agrees.
const bool kHaveSse42 = DetectSse42();

#endif

}  // namespace

uint32_t Crc32cPortable(std::string_view data) {
  const char* p = data.data();
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint64_t word = LoadLittleEndian64(p) ^ crc;
    crc = kTables[7][word & 0xFF] ^ kTables[6][(word >> 8) & 0xFF] ^
          kTables[5][(word >> 16) & 0xFF] ^ kTables[4][(word >> 24) & 0xFF] ^
          kTables[3][(word >> 32) & 0xFF] ^ kTables[2][(word >> 40) & 0xFF] ^
          kTables[1][(word >> 48) & 0xFF] ^ kTables[0][word >> 56];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ static_cast<uint8_t>(*p)) & 0xFF];
  }
  return ~crc;
}

bool Crc32cUsesHardware() {
#if defined(__x86_64__)
  return kHaveSse42;
#else
  return false;
#endif
}

uint32_t Crc32c(std::string_view data) {
#if defined(__x86_64__)
  if (kHaveSse42) return Crc32cSse42(data);
#endif
  return Crc32cPortable(data);
}

}  // namespace tsviz
