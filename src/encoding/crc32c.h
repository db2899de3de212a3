#ifndef TSVIZ_ENCODING_CRC32C_H_
#define TSVIZ_ENCODING_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace tsviz {

// CRC-32C (Castagnoli; reflected polynomial 0x82F63B78, initial value and
// final xor 0xFFFFFFFF), the checksum of iSCSI and ext4. It catches every
// error burst of up to 32 bits, so every single-byte corruption of a page.
//
// Crc32c consumes 8 bytes per step: on x86-64 CPUs with SSE4.2 (checked
// once at run time) through the crc32 instruction, elsewhere through
// Crc32cPortable.
uint32_t Crc32c(std::string_view data);

// The table-driven (slicing-by-8) implementation. Tests use it as the
// reference for the hardware path.
uint32_t Crc32cPortable(std::string_view data);

// Whether Crc32c runs on the crc32 instruction on this CPU.
bool Crc32cUsesHardware();

}  // namespace tsviz

#endif  // TSVIZ_ENCODING_CRC32C_H_
