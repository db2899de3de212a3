#ifndef TSVIZ_ENCODING_PAGE_H_
#define TSVIZ_ENCODING_PAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace tsviz {

// Codec selectors recorded per page, so readers never guess.
enum class TsCodec : uint8_t { kPlain = 0, kTs2Diff = 1 };
enum class ValueCodec : uint8_t { kPlain = 0, kGorilla = 1, kRle = 2 };

// A page is the unit of decompression: a run of consecutive points encoded
// as one timestamp block plus one value block, with a checksum. Chunks are
// sequences of pages; partial scans decode only the pages they touch.
//
// Wire layout:
//   varint   point count
//   u8       timestamp codec
//   u8       value codec
//   fixed64  min timestamp
//   fixed64  max timestamp
//   varint + bytes  timestamp block
//   varint + bytes  value block
//   fixed64  checksum of everything above (see PageChecksum)

// The checksum that seals a page. EncodePage writes CRC32C, zero-extended
// into the fixed64; pages of v01 data files carry FNV-1a 64. The data
// file's magic says which (storage/file_format.h).
enum class PageChecksum : uint8_t { kFnv1a64 = 0, kCrc32c = 1 };

// Directory entry describing one page inside a chunk blob; stored in the
// chunk metadata so readers can seek to and decode a single page.
struct PageInfo {
  uint32_t count = 0;
  Timestamp min_t = 0;
  Timestamp max_t = 0;
  uint32_t offset = 0;  // byte offset of the page within the chunk blob
  uint32_t length = 0;  // encoded byte length of the page

  friend bool operator==(const PageInfo&, const PageInfo&) = default;
};

// Encodes `points` (sorted, strictly increasing timestamps, non-empty) as one
// page appended to *dst. On success fills *info (offset relative to the dst
// size before the call).
Status EncodePage(const Point* points, size_t count, TsCodec ts_codec,
                  ValueCodec value_codec, std::string* dst, PageInfo* info);

// Decodes the page stored in `src` (exactly one page's bytes) into *out
// (points are appended). Verifies the checksum as a full 64-bit value.
Status DecodePage(std::string_view src, std::vector<Point>* out,
                  PageChecksum checksum = PageChecksum::kCrc32c);

}  // namespace tsviz

#endif  // TSVIZ_ENCODING_PAGE_H_
