#ifndef TSVIZ_STORAGE_FILE_FORMAT_H_
#define TSVIZ_STORAGE_FILE_FORMAT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "encoding/page.h"
#include "storage/chunk_metadata.h"
#include "storage/delete_record.h"

namespace tsviz {

// Data file (TsFile analog) layout:
//
//   magic(8) | chunk blob* | footer | fixed64 footer_len
//   | fixed64 footer_checksum | magic(8)
//
// The footer is the serialized list of ChunkMetadata; readers load only the
// footer to serve metadata queries (the MetadataReader path in Figure 15).
// Delete operations live in a sidecar ".mods" file of fixed-size records,
// mirroring IoTDB's TsFile.mods.
//
// The leading and trailing magic are equal and name the page checksum:
// v02 files (the only ones written) seal pages with CRC32C, v01 files with
// FNV-1a 64. v01 files stay readable; compaction rewrites them as v02.

inline constexpr std::string_view kFileMagic = "TSVZFL02";
inline constexpr std::string_view kFileMagicV1 = "TSVZFL01";
inline constexpr std::string_view kModsMagic = "TSVZMD01";

// The page checksum of a data file whose magic is `magic`; Corruption for
// an unknown magic.
Result<PageChecksum> PageChecksumForMagic(std::string_view magic);

// Serializes the complete file tail (footer + trailer) for `chunks`.
std::string SerializeFileTail(const std::vector<ChunkMetadata>& chunks);

// Parses chunk metadata back out of the last `tail` bytes of a file whose
// total size is `file_size` (used to validate offsets). Accepts either
// magic.
Result<std::vector<ChunkMetadata>> ParseFileTail(std::string_view tail,
                                                 uint64_t file_size);

// Minimum number of bytes a reader must fetch from the end of the file to
// find the trailer (footer_len + checksum + magic).
inline constexpr size_t kFileTrailerSize = 8 + 8 + 8;

// One delete record in the mods file: fixed64 start, fixed64 end,
// fixed64 version.
inline constexpr size_t kModsRecordSize = 24;

void SerializeDeleteRecord(const DeleteRecord& del, std::string* dst);
Result<DeleteRecord> ParseDeleteRecord(std::string_view* src);

}  // namespace tsviz

#endif  // TSVIZ_STORAGE_FILE_FORMAT_H_
