#ifndef TSVIZ_ENCODING_PLAIN_H_
#define TSVIZ_ENCODING_PLAIN_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace tsviz {

// Uncompressed little-endian codecs; the baseline for the encoding bench and
// the fallback when compression is disabled in StoreConfig. Decoders reject
// a count larger than MaxPlainCount(block bytes) before they allocate or
// write anything.

inline size_t MaxPlainCount(size_t bytes) { return bytes / 8; }

Status EncodePlainTimestamps(const std::vector<Timestamp>& timestamps,
                             std::string* dst);
// Writes out[i].t for i < count; `out` must hold count points.
Status DecodePlainTimestamps(std::string_view* src, size_t count,
                             Point* out);

Status EncodePlainValues(const std::vector<Value>& values, std::string* dst);
Status DecodePlainValues(std::string_view src, size_t count,
                         std::vector<Value>* out);
// Writes out[i].v for i < count; `out` must hold count points.
Status DecodePlainValues(std::string_view src, size_t count, Point* out);

}  // namespace tsviz

#endif  // TSVIZ_ENCODING_PLAIN_H_
